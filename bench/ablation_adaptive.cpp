// Ablation A11: how much would adaptive routing buy -- and does congestion
// control sharpen or dull it?
//
// InfiniBand forwarding is deterministic by specification -- the premise
// the MLID scheme works within.  This what-if switches the simulator's
// crossbars to the registered "adaptive" forwarding policy (credit /
// occupancy-keyed uplink selection, FECN-mark tie-breaking when CC is on)
// and compares against the static schemes under a hot-spot workload, over
// the full 2x2 of {policy off/on} x {congestion control off/on}.  A second
// table holds the forwarding policy fixed and sweeps the dynamic VL-map
// axis (vFtree-style destination binding, flow hashing) at 4 VLs.
//
// The run is self-checking: under centric traffic the adaptive policy must
// strictly rescue SLID (it substitutes for the static spreading) and stay
// within 5% of MLID's deterministic throughput in every CC cell.  Any
// violated expectation prints a diagnostic and exits non-zero, so CI can
// run this binary as a policy-regression gate.
#include <cstdio>
#include <string>
#include <vector>

#include "common/text_table.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"

namespace {

// Simulation + manifest for one cell, so the BENCH json carries the
// policy/vl_map provenance fields (schema v6) for every series.
mlid::SimResult run_cell(const mlid::Subnet& subnet, const mlid::SimConfig& cfg,
                         const mlid::TrafficConfig& traffic, double load,
                         mlid::BenchReport& report, const std::string& series) {
  using namespace mlid;
  Simulation sim = Simulation::open_loop(subnet, cfg, traffic, load);
  const SimResult r = sim.run();
  PointManifest manifest;
  manifest.sim_seed = cfg.seed;
  manifest.traffic_seed = traffic.seed;
  manifest.events_processed = r.events_processed;
  manifest.events_scheduled = r.events_scheduled;
  manifest.policy = cfg.policy.forwarding;
  manifest.vl_map = cfg.policy.vl_map;
  manifest.queue = sim.queue_stats();
  report.add(series, r, manifest);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlid;
  const CliOptions opts(argc, argv);
  BenchReport report("adaptive", opts);
  const int m = 8, n = 2;
  const double kLoad = 0.9;
  const double kHot = 0.20;
  const FatTreeFabric fabric{FatTreeParams(m, n)};
  const Subnet slid(fabric, "SLID");
  const Subnet mlid_subnet(fabric, "MLID");

  auto base_cfg = [&](const char* policy, const char* vl_map) {
    SimConfig cfg;
    cfg.policy.forwarding = policy;
    cfg.policy.vl_map = vl_map;
    cfg.seed = opts.seed();
    if (opts.quick()) {
      cfg.warmup_ns = 5'000;
      cfg.measure_ns = 20'000;
    }
    return cfg;
  };
  const TrafficConfig centric{TrafficKind::kCentric, kHot, 0,
                              opts.seed() ^ 0xABBu};

  std::printf("Ablation A11: deterministic vs adaptive uplinks x congestion"
              " control,\n%d-port %d-tree, centric %d%% hot traffic, offered"
              " load %.1f, 1 VL\n", m, n, int(kHot * 100), kLoad);

  // ---- 2x2: forwarding policy x congestion control ------------------------
  // Every policy arm of a cell faces the identical traffic stream (same
  // TrafficConfig seed), so differences measure the policy and nothing else.
  TextTable table({"cc", "scheme", "policy", "accepted B/ns/node",
                   "avg latency ns", "p99 ns"});
  // accepted[cc on?][scheme][policy] for the self-checks below.
  double accepted[2][2][2] = {};
  const char* scheme_names[2] = {"SLID", "MLID"};
  const Subnet* subnets[2] = {&slid, &mlid_subnet};
  const char* policy_names[2] = {"deterministic", "adaptive"};
  for (int cc_on = 0; cc_on < 2; ++cc_on) {
    for (int s = 0; s < 2; ++s) {
      for (int p = 0; p < 2; ++p) {
        SimConfig cfg = base_cfg(policy_names[p], "random");
        cfg.cc.enabled = cc_on == 1;
        const std::string series = std::string(cc_on ? "cc" : "nocc") + "/" +
                                   scheme_names[s] + "/" + policy_names[p];
        const SimResult r =
            run_cell(*subnets[s], cfg, centric, kLoad, report, series);
        accepted[cc_on][s][p] = r.accepted_bytes_per_ns_per_node;
        table.add_row({cc_on ? "on" : "off", scheme_names[s], policy_names[p],
                       TextTable::num(r.accepted_bytes_per_ns_per_node, 4),
                       TextTable::num(r.avg_latency_ns, 1),
                       TextTable::num(r.p99_latency_ns, 1)});
      }
    }
  }
  std::fputs(table.to_string().c_str(), stdout);

  // ---- VL-map axis: dynamic queuing at 4 VLs ------------------------------
  std::printf("\nDynamic VL assignment (deterministic forwarding, 4 VLs):\n");
  TextTable vl_table({"scheme", "vl map", "accepted B/ns/node",
                      "avg latency ns", "p99 ns"});
  for (int s = 0; s < 2; ++s) {
    for (const char* vl_map : {"random", "dest-mod", "flow-hash"}) {
      SimConfig cfg = base_cfg("deterministic", vl_map);
      cfg.num_vls = 4;
      const SimResult r =
          run_cell(*subnets[s], cfg, centric, kLoad, report,
                   std::string("vlmap/") + scheme_names[s] + "/" + vl_map);
      vl_table.add_row({scheme_names[s], vl_map,
                        TextTable::num(r.accepted_bytes_per_ns_per_node, 4),
                        TextTable::num(r.avg_latency_ns, 1),
                        TextTable::num(r.p99_latency_ns, 1)});
    }
  }
  std::fputs(vl_table.to_string().c_str(), stdout);

  std::puts("\nExpected shape: adaptive forwarding lifts SLID close to MLID"
            " (it substitutes for\nthe static spreading); on top of MLID it"
            " adds only a small further gain -- the\npaper's deterministic"
            " scheme already captures most of the multipath benefit.");

  // ---- self-checks ---------------------------------------------------------
  int violations = 0;
  auto check = [&violations](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++violations;
    }
  };
  for (int cc_on = 0; cc_on < 2; ++cc_on) {
    const char* cc_label = cc_on ? "cc on" : "cc off";
    // Hot-spot convergence starves SLID's single fixed uplink; spreading
    // over equivalent uplinks must strictly recover throughput.
    check(accepted[cc_on][0][1] > accepted[cc_on][0][0],
          std::string("adaptive must beat deterministic SLID under centric"
                      " traffic (") + cc_label + ")");
    // MLID's static spreading is already near-optimal: adaptive may shuffle
    // ties but must not give up more than 5%.
    check(accepted[cc_on][1][1] >= 0.95 * accepted[cc_on][1][0],
          std::string("adaptive must stay within 5% of deterministic MLID (") +
              cc_label + ")");
  }

  std::printf("\n(wrote %s)\n", report.write().c_str());
  if (violations > 0) {
    std::fprintf(stderr, "%d self-check(s) failed\n", violations);
    return 1;
  }
  return 0;
}
