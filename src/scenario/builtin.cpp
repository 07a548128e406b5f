// The built-in production scenarios: incast (N-to-1 hot spot, CC litmus),
// multi-tenant (partitioned tenants on dedicated VLs), mice-elephants
// (skewed flow-size mix on the closed-loop path) and churn (long-running
// fail/recover process against the live SM).
//
// Contract bounds here are deliberately loose versions of the effects
// EXPERIMENTS.md records -- they gate CI against regressions (a scheme or
// engine change that destroys CC victim relief, tenant fairness, or SM
// recovery), not against run-to-run noise.  Every arm of one scenario runs
// under identical sim/traffic seeds (the orchestrator enforces this), so
// the ratios compare configuration deltas and nothing else.
#include "scenario/scenario.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace mlid {
namespace {

// Shared quick-mode window shrink (the --quick contract every bench
// honours).  Scenarios whose contracts need slow control loops to engage
// (CC convergence, SM sweeps) pass a larger quick measure window: the run
// still shrinks several-fold, but not below the loop's time constant.
void shrink_windows(SimConfig& sim, bool quick, SimTime measure_ns = 20'000) {
  if (quick) {
    sim.warmup_ns = 5'000;
    sim.measure_ns = measure_ns;
  }
}

// Ratio helper guarding the zero-denominator corner: a baseline of 0 means
// the arm produced nothing to compare against, which must read as a
// violation (HUGE ratio), never as a vacuous pass.
double ratio(double value, double baseline) {
  return baseline > 0.0 ? value / baseline : 1e9;
}

ContractCheck bounded(std::string name, double measured, double bound,
                      std::string detail) {
  ContractCheck c;
  c.name = std::move(name);
  c.measured = measured;
  c.bound = bound;
  c.passed = measured <= bound;
  c.detail = std::move(detail);
  return c;
}

ContractCheck at_least(std::string name, double measured, double bound,
                       std::string detail) {
  ContractCheck c;
  c.name = std::move(name);
  c.measured = measured;
  c.bound = bound;
  c.passed = measured >= bound;
  c.detail = std::move(detail);
  return c;
}

// --- incast ------------------------------------------------------------------
//
// Every node directs most of its traffic at one storage/parameter-server
// node -- the classic datacenter incast.  Two arms, CC off and CC on, facing
// the bit-identical traffic stream; the contract is the paper-adjacent CC
// claim that victim flows (sharing switches with the congestion tree without
// feeding it) recover most of their TAIL latency when the CCT throttles the
// tree.  The victim mean is only held to a no-harm ceiling: throttling
// shifts some mid-distribution packets later even as it collapses the tail.
class IncastScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "incast";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "N-to-1 hot spot; CC off vs on must relieve victim-flow latency";
  }

  [[nodiscard]] std::vector<ScenarioRun> plan(const FatTreeFabric& fabric,
                                              bool quick) const override {
    (void)fabric;
    ScenarioRun base;
    base.scheme = "MLID";
    base.sim.num_vls = 2;
    // The CC litmus needs the CCT loop to engage and drain: below ~60 us
    // measured the tail relief has not materialized yet, and a shortened
    // warmup leaks the throttle-engagement transient into the victim mean.
    shrink_windows(base.sim, quick, /*measure_ns=*/60'000);
    if (quick) base.sim.warmup_ns = 20'000;
    base.traffic.kind = TrafficKind::kCentric;
    base.traffic.hot_fraction = 0.6;
    base.traffic.hot_node = 0;
    base.offered_load = 0.8;

    ScenarioRun cc_off = base;
    cc_off.arm = "cc-off";
    ScenarioRun cc_on = base;
    cc_on.arm = "cc-on";
    cc_on.sim.cc.enabled = true;
    return {cc_off, cc_on};
  }

  [[nodiscard]] std::vector<ContractCheck> evaluate(
      const std::vector<ScenarioOutcome>& outcomes) const override {
    MLID_EXPECT(outcomes.size() == 2, "incast runs exactly two arms");
    const SimResult& off = outcomes[0].sim;
    const SimResult& on = outcomes[1].sim;
    std::vector<ContractCheck> checks;
    checks.push_back(at_least(
        "victim-flows-observed",
        static_cast<double>(std::min(off.victim_packets, on.victim_packets)),
        1.0, "both arms must deliver victim (non-hot) packets in-window"));
    checks.push_back(bounded(
        "victim-p99-cc-ratio",
        ratio(on.victim_p99_latency_ns, off.victim_p99_latency_ns), 0.90,
        "victim p99 latency with CC on <= 0.90x CC off"));
    // Loose ceiling on purpose: CC roughly doubles the victims DELIVERED
    // in-window, so the CC-on mean includes slow packets the CC-off arm
    // never completes at all (survivorship skew), not added queueing.
    checks.push_back(bounded(
        "victim-avg-cc-ratio",
        ratio(on.victim_avg_latency_ns, off.victim_avg_latency_ns), 1.50,
        "CC must not inflate victim mean latency > 1.50x CC off"));
    checks.push_back(at_least(
        "cc-loop-engaged", static_cast<double>(on.cc.becn_sent), 1.0,
        "the CC arm must actually exercise the FECN/BECN loop"));
    return checks;
  }
};

// --- multi-tenant ------------------------------------------------------------
//
// Four tenants on contiguous node blocks, traffic confined to each tenant's
// own block (TrafficConfig::tenants), compared with and without pinning each
// tenant to its own virtual lane.  The contract is isolation: every tenant
// is served, and the per-tenant Jain index over accepted byte rates stays
// near 1 -- symmetric tenants must get symmetric service.
class MultiTenantScenario final : public Scenario {
 public:
  static constexpr int kTenants = 4;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "multi-tenant";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "4 partitioned tenants, shared vs per-tenant VLs; Jain >= 0.85";
  }

  [[nodiscard]] std::vector<ScenarioRun> plan(const FatTreeFabric& fabric,
                                              bool quick) const override {
    MLID_EXPECT(fabric.params().num_nodes() >= 2 * kTenants,
                "multi-tenant needs at least two nodes per tenant");
    ScenarioRun base;
    base.scheme = "MLID";
    base.sim.num_vls = kTenants;
    base.sim.tenants.count = kTenants;
    shrink_windows(base.sim, quick);
    base.traffic.kind = TrafficKind::kUniform;
    base.traffic.tenants = kTenants;
    base.offered_load = 0.6;

    ScenarioRun shared = base;
    shared.arm = "shared-vl";
    ScenarioRun isolated = base;
    isolated.arm = "isolated-vl";
    isolated.sim.policy.vl_map = "tenant";
    return {shared, isolated};
  }

  [[nodiscard]] std::vector<ContractCheck> evaluate(
      const std::vector<ScenarioOutcome>& outcomes) const override {
    MLID_EXPECT(outcomes.size() == 2, "multi-tenant runs exactly two arms");
    std::vector<ContractCheck> checks;
    for (const ScenarioOutcome& o : outcomes) {
      std::uint64_t min_delivered =
          o.sim.tenants.empty() ? 0 : o.sim.tenants.front().delivered_pkts;
      for (const TenantStats& t : o.sim.tenants) {
        min_delivered = std::min(min_delivered, t.delivered_pkts);
      }
      checks.push_back(at_least(
          o.arm + "/tenant-count", static_cast<double>(o.sim.tenants.size()),
          kTenants, "per-tenant accounting must cover every tenant"));
      checks.push_back(at_least(o.arm + "/all-tenants-served",
                                static_cast<double>(min_delivered), 1.0,
                                "every tenant block must receive traffic"));
      checks.push_back(at_least(o.arm + "/tenant-jain",
                                o.sim.tenant_jain_fairness_index, 0.85,
                                "Jain index over per-tenant accepted byte "
                                "rates >= 0.85"));
    }
    return checks;
  }
};

// --- mice-elephants ----------------------------------------------------------
//
// The datacenter flow-size mix on the closed-loop path: many short messages,
// a few huge ones carrying most of the bytes, drained to completion under
// SLID and MLID.  The contract is the paper's headline on this workload
// shape: multipath spreading must not lose to single-path routing on
// makespan, and every message must complete under both schemes.
class MiceElephantsScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "mice-elephants";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "skewed flow-size burst, SLID vs MLID; MLID makespan not worse";
  }

  [[nodiscard]] std::vector<ScenarioRun> plan(const FatTreeFabric& fabric,
                                              bool quick) const override {
    MiceElephantsConfig mix;
    if (quick) {
      mix.flows_per_node = 4;
      mix.elephant_bytes = 16'384;
    }
    // Fixed workload seed: both arms must face the bit-identical message
    // list, and the contract bounds are calibrated against this instance.
    const auto workload = mice_elephants(fabric.params().num_nodes(), mix,
                                         /*seed=*/0x00D15C0DE5ull);
    ScenarioRun base;
    base.closed_loop = true;
    base.workload = workload;
    base.sim.num_vls = 2;

    ScenarioRun slid = base;
    slid.arm = "SLID";
    slid.scheme = "SLID";
    ScenarioRun mlid = base;
    mlid.arm = "MLID";
    mlid.scheme = "MLID";
    return {slid, mlid};
  }

  [[nodiscard]] std::vector<ContractCheck> evaluate(
      const std::vector<ScenarioOutcome>& outcomes) const override {
    MLID_EXPECT(outcomes.size() == 2, "mice-elephants runs exactly two arms");
    const BurstResult& slid = outcomes[0].burst;
    const BurstResult& mlid = outcomes[1].burst;
    std::vector<ContractCheck> checks;
    checks.push_back(at_least(
        "messages-complete",
        static_cast<double>(std::min(slid.messages, mlid.messages)), 1.0,
        "both arms must drain the workload (burst mode asserts completion)"));
    checks.push_back(bounded("mlid-makespan-ratio",
                             ratio(static_cast<double>(mlid.makespan_ns),
                                   static_cast<double>(slid.makespan_ns)),
                             1.05,
                             "MLID makespan <= 1.05x SLID on the skewed mix"));
    // Mean message latency is a no-harm ceiling, not an improvement claim:
    // spreading elephants across paths reorders completion of the mice
    // behind them, which moves the mean a little even when makespan wins.
    checks.push_back(bounded(
        "mlid-avg-message-ratio",
        ratio(mlid.avg_message_latency_ns, slid.avg_message_latency_ns), 1.25,
        "MLID mean message latency <= 1.25x SLID"));
    return checks;
  }
};

// --- churn -------------------------------------------------------------------
//
// A long-running fail/recover process (two uplinks flapping on a staggered
// cadence) against the live Subnet Manager.  The contract is operational
// health: the SM must see the traps and re-sweep, convergence must be
// observed, and the delivery rate over the whole run must stay >= 90% --
// i.e. the convergence windows stay short relative to the flap cadence.
class ChurnScenario final : public Scenario {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "churn";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "periodic uplink flaps vs the live SM; delivery >= 90% end to end";
  }

  [[nodiscard]] std::vector<ScenarioRun> plan(const FatTreeFabric& fabric,
                                              bool quick) const override {
    ScenarioRun run;
    run.arm = "flapping-uplinks";
    run.scheme = "MLID";
    run.sim.num_vls = 2;
    // A modeled SM sweep on FT(4,3) costs ~20 us (SMP probes + table
    // programming); the quick window must hold the first flap plus a full
    // sweep or the reconvergence contracts cannot be observed at all.
    shrink_windows(run.sim, quick, /*measure_ns=*/60'000);
    run.traffic.kind = TrafficKind::kUniform;
    run.offered_load = 0.4;
    // Flap parameters scale with the run length so quick mode still fits
    // multiple full fail/recover cycles before the end of the run.
    const SimTime end = run.sim.end_time();
    const SimTime start = quick ? 10'000 : 30'000;
    const SimTime period = quick ? 20'000 : 25'000;
    const SimTime downtime = quick ? 6'000 : 8'000;
    run.faults = FaultSchedule::periodic_uplink_churn(
        fabric, /*links=*/2, start, period, downtime, /*until=*/end,
        /*seed=*/0xC0FFEEull);
    return {run};
  }

  [[nodiscard]] std::vector<ContractCheck> evaluate(
      const std::vector<ScenarioOutcome>& outcomes) const override {
    MLID_EXPECT(outcomes.size() == 1, "churn runs exactly one arm");
    const SimResult& r = outcomes[0].sim;
    std::vector<ContractCheck> checks;
    const double delivery_rate =
        r.packets_generated > 0
            ? static_cast<double>(r.packets_delivered) /
                  static_cast<double>(r.packets_generated)
            : 0.0;
    checks.push_back(at_least("delivery-rate", delivery_rate, 0.90,
                              "delivered / generated >= 90% despite flaps"));
    checks.push_back(at_least("sm-traps", static_cast<double>(r.sm_traps),
                              1.0, "the SM must receive fault traps"));
    checks.push_back(at_least("sm-sweeps", static_cast<double>(r.sm_sweeps),
                              1.0, "traps must trigger re-sweeps"));
    checks.push_back(at_least(
        "reconvergence-observed",
        r.first_fault_ns >= 0 && r.sm_converged_ns > r.first_fault_ns ? 1.0
                                                                      : 0.0,
        1.0, "the SM must reach quiescence after the first fault"));
    return checks;
  }
};

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add("incast", [] {
    return std::unique_ptr<Scenario>(std::make_unique<IncastScenario>());
  });
  registry.add("multi-tenant", [] {
    return std::unique_ptr<Scenario>(std::make_unique<MultiTenantScenario>());
  });
  registry.add("mice-elephants", [] {
    return std::unique_ptr<Scenario>(
        std::make_unique<MiceElephantsScenario>());
  });
  registry.add("churn", [] {
    return std::unique_ptr<Scenario>(std::make_unique<ChurnScenario>());
  });
}

}  // namespace mlid
