#include "harness/scenario_sweep.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "common/text_table.hpp"
#include "parallel/sharded.hpp"
#include "subnet/sm.hpp"

namespace mlid {

namespace {

// Same finalization discipline as sweep_point_seed's coordinate mixing.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  return SplitMix64(h ^ word).next();
}

// Domain separator between the simulation and traffic stream families
// (sweep.cpp uses the same constant for the grid sweeps; scenario streams
// are separated from grid streams by the name hash below).
constexpr std::uint64_t kTrafficSeedDomain = 0x5EEDFACE5EEDFACEull;

// FNV-1a over the lowercased scenario name: lookups are case-insensitive,
// so "Incast" and "incast" must derive identical streams.
std::uint64_t hash_scenario_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(
        std::tolower(static_cast<unsigned char>(c)));
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint64_t scenario_seed(std::uint64_t base, std::string_view scenario) {
  return mix_word(SplitMix64(base).next(), hash_scenario_name(scenario));
}

std::uint64_t scenario_traffic_seed(std::uint64_t base,
                                    std::string_view scenario) {
  return mix_word(SplitMix64(base ^ kTrafficSeedDomain).next(),
                  hash_scenario_name(scenario));
}

ScenarioReport run_scenario(const Scenario& scenario,
                            const ScenarioSweepOptions& options) {
  MLID_EXPECT(options.shards >= 1, "ScenarioSweepOptions::shards must be >= 1");
  const FatTreeParams params(options.m, options.n);

  ScenarioReport report;
  report.name = std::string(scenario.name());
  report.description = std::string(scenario.description());

  // Plan against a throwaway fabric; execution builds a fresh, identically
  // parameterized fabric per arm because arms with a fault schedule mutate
  // theirs through the live SM (SubnetManager takes FatTreeFabric&).
  const FatTreeFabric plan_fabric(params);
  std::vector<ScenarioRun> runs = scenario.plan(plan_fabric, options.quick);
  MLID_EXPECT(!runs.empty(), "a scenario must plan at least one arm");

  // Every arm of one scenario shares these streams (see scenario_seed).
  const std::uint64_t sim_seed = scenario_seed(options.base_seed, report.name);
  const std::uint64_t traffic_seed =
      scenario_traffic_seed(options.base_seed, report.name);

  // bytes_per_endport denominator, as in run_sweep: every physical port.
  std::size_t fabric_ports = 0;
  for (DeviceId dev = 0; dev < plan_fabric.fabric().num_devices(); ++dev) {
    fabric_ports += static_cast<std::size_t>(
        plan_fabric.fabric().device(dev).num_ports());
  }

  struct Job {
    ScenarioRun run;
    ScenarioPoint point;
  };
  std::vector<Job> jobs;
  jobs.reserve(runs.size());
  for (ScenarioRun& run : runs) {
    ScenarioPoint point;
    point.scenario = report.name;
    point.arm = run.arm;
    point.scheme = run.scheme;
    point.closed_loop = run.closed_loop;
    jobs.push_back(Job{std::move(run), std::move(point)});
  }

  unsigned threads = options.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = std::min<unsigned>(threads, static_cast<unsigned>(jobs.size()));

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  const auto sweep_start = std::chrono::steady_clock::now();
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      Job& job = jobs[i];
      SimConfig cfg = job.run.sim;
      cfg.seed = sim_seed;
      if (options.profile) cfg.profile = true;
      // Per-arm fabric + subnet: fault arms mutate the fabric via the SM.
      FatTreeFabric fabric(params);
      const Subnet subnet(fabric, job.run.scheme);
      const ShardOptions par{static_cast<std::uint32_t>(options.shards),
                             threads > 1 ? 1u : 0u};
      const auto start = std::chrono::steady_clock::now();
      std::size_t hot_bytes = 0;
      std::uint64_t events_processed = 0;
      std::uint64_t events_scheduled = 0;
      if (job.run.closed_loop) {
        ShardedSimulation sim =
            ShardedSimulation::burst(subnet, cfg, job.run.workload, par);
        job.point.burst = sim.run_to_completion();
        job.point.manifest.queue = sim.queue_stats();
        hot_bytes = sim.memory_footprint();
        events_processed = job.point.burst.events_processed;
        events_scheduled = job.point.burst.events_scheduled;
      } else {
        TrafficConfig traffic = job.run.traffic;
        traffic.seed = traffic_seed;
        job.point.manifest.traffic_seed = traffic.seed;
        // The live SM exists only for arms that actually schedule faults;
        // fault-free arms take the byte-identical unattached path.
        std::optional<SubnetManager> sm;
        OpenLoopOptions sim_options;
        if (!job.run.faults.empty()) {
          sm.emplace(fabric, subnet);
          sim_options.live_sm = &*sm;
          sim_options.faults = job.run.faults;
        }
        ShardedSimulation sim = ShardedSimulation::open_loop(
            subnet, cfg, traffic, job.run.offered_load, par, sim_options);
        job.point.sim = sim.run();
        job.point.manifest.queue = sim.queue_stats();
        hot_bytes = sim.memory_footprint();
        events_processed = job.point.sim.events_processed;
        events_scheduled = job.point.sim.events_scheduled;
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      job.point.manifest.sim_seed = cfg.seed;
      job.point.manifest.wall_seconds = wall;
      job.point.manifest.events_processed = events_processed;
      job.point.manifest.events_scheduled = events_scheduled;
      job.point.manifest.events_per_sec =
          wall > 0.0 ? static_cast<double>(events_processed) / wall : 0.0;
      job.point.manifest.threads = threads;
      job.point.manifest.shards = options.shards;
      job.point.manifest.policy = cfg.policy.forwarding;
      job.point.manifest.vl_map = cfg.policy.vl_map;
      job.point.manifest.scenario = job.point.scenario;
      job.point.manifest.bytes_per_endport =
          static_cast<double>(hot_bytes + subnet.routes().memory_bytes()) /
          static_cast<double>(fabric_ports);
      job.point.manifest.profile = job.point.sim.profile;
      if (options.progress) {
        const std::size_t done = completed.fetch_add(1) + 1;
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          sweep_start)
                .count();
        const double eta = elapsed / static_cast<double>(done) *
                           static_cast<double>(jobs.size() - done);
        std::fprintf(
            stderr,
            "progress: %s %zu/%zu arms, %.1fs elapsed, eta %.1fs\n",
            report.name.c_str(), done, jobs.size(), elapsed, eta);
      }
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (Job& job : jobs) {
    ScenarioOutcome outcome;
    outcome.arm = job.point.arm;
    outcome.closed_loop = job.point.closed_loop;
    outcome.sim = job.point.sim;
    outcome.burst = job.point.burst;
    outcomes.push_back(std::move(outcome));
    report.points.push_back(std::move(job.point));
  }
  report.checks = scenario.evaluate(outcomes);
  return report;
}

std::vector<ScenarioReport> run_scenarios(
    const std::vector<std::string>& names,
    const ScenarioSweepOptions& options) {
  const std::vector<std::string> selected =
      names.empty() ? scenario_names() : names;
  std::vector<ScenarioReport> reports;
  reports.reserve(selected.size());
  for (const std::string& name : selected) {
    const std::unique_ptr<Scenario> scenario = make_scenario(name);
    reports.push_back(run_scenario(*scenario, options));
  }
  return reports;
}

std::string render_scenario_table(const ScenarioReport& report) {
  std::string out = report.name + ": " + report.description + "\n";
  TextTable table({"arm", "scheme", "mode", "throughput B/ns", "avg lat ns",
                   "p99 ns", "delivered", "dropped"});
  for (const ScenarioPoint& p : report.points) {
    if (p.closed_loop) {
      table.add_row({p.arm, p.scheme, "burst",
                     TextTable::num(p.burst.aggregate_bytes_per_ns(), 4),
                     TextTable::num(p.burst.avg_message_latency_ns, 1),
                     TextTable::num(p.burst.p99_message_latency_ns, 1),
                     std::to_string(p.burst.messages), "0"});
    } else {
      table.add_row({p.arm, p.scheme, "open-loop",
                     TextTable::num(p.sim.accepted_bytes_per_ns_per_node, 4),
                     TextTable::num(p.sim.avg_latency_ns, 1),
                     TextTable::num(p.sim.p99_latency_ns, 1),
                     std::to_string(p.sim.packets_delivered),
                     std::to_string(p.sim.packets_dropped)});
    }
  }
  out += table.to_string();
  return out;
}

std::string render_contract_table(const ScenarioReport& report) {
  TextTable table({"contract", "status", "measured", "bound", "detail"});
  for (const ContractCheck& c : report.checks) {
    table.add_row({c.name, c.passed ? "PASS" : "FAIL",
                   TextTable::num(c.measured, 4), TextTable::num(c.bound, 4),
                   c.detail});
  }
  return table.to_string();
}

}  // namespace mlid
