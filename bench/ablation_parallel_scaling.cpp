// Ablation P1: parallel execution scaling.  Two independent axes:
//
//   * point-parallelism -- the same figure sweep run on 1/2/4/8 worker
//     threads; points are independent simulations, so this scales until
//     the grid or the cores run out, and every thread count must produce
//     byte-identical results;
//   * engine sharding -- ONE simulation split across 1/2/4/8 shards of the
//     conservative-sync engine, again bit-identical by construction, with
//     the window-barrier overhead on display.
//
// Wall-clock numbers only mean something on a multi-core host; the bench
// prints the hardware concurrency and leaves speedup *assertions* to CI
// (perf-smoke), reporting events/sec honestly either way.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/text_table.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "parallel/sharded.hpp"
#include "routing/fat_tree_routing.hpp"

int main(int argc, char** argv) {
  using namespace mlid;
  const CliOptions opts(argc, argv);
  BenchReport report("parallel_scaling", opts);
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("Ablation P1: parallel scaling (host has %u hardware thread%s)\n",
              cores, cores == 1 ? "" : "s");
  if (cores <= 1) {
    std::puts("note: single-core host -- wall times below measure overhead,"
              " not speedup");
  }

  const auto wall_of = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // --- Axis 1: sweep worker threads -----------------------------------------
  FigureSpec spec;
  spec.title = "parallel scaling sweep";
  spec.m = 4;
  spec.n = 3;
  spec.traffic = {TrafficKind::kUniform, 0.2, 0, opts.seed() ^ 0xABCu};
  spec.sim.seed = opts.seed();
  spec.vl_counts = {1, 4};
  if (opts.quick()) {
    spec.sim.warmup_ns = 5'000;
    spec.sim.measure_ns = 20'000;
    spec.loads = {0.3, 0.6, 0.9};
  } else {
    spec.loads = {0.2, 0.4, 0.6, 0.8, 0.95};
  }

  TextTable sweep_table(
      {"sweep threads", "wall s", "Mevents/s", "identical to 1-thread"});
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SweepOptions sweep = opts.sweep_options();
    sweep.quick = false;  // the spec above already applied its quick grid
    sweep.threads = threads;
    std::vector<SweepPoint> points;
    const double wall = wall_of([&] { points = run_sweep(spec, sweep); });
    std::uint64_t events = 0;
    for (const auto& p : points) events += p.result.events_processed;
    // Profile-scrubbed identity, so the check survives a --profile run
    // (host wall times in the profile block are not deterministic).
    std::string json;
    for (const auto& p : points) {
      SimResult scrubbed = p.result;
      scrubbed.profile = ProfileSummary{};
      json += to_json(scrubbed);
    }
    if (threads == 1) {
      baseline = json;
      FigureSpec titled = spec;
      titled.title = "sweep @1 thread";
      report.add_figure(titled, points);
    }
    const bool identical = json == baseline;
    sweep_table.add_row({std::to_string(threads), TextTable::num(wall, 3),
                         TextTable::num(static_cast<double>(events) / wall /
                                            1e6,
                                        2),
                         identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: sweep results diverged at %u threads\n", threads);
      return 1;
    }
  }
  std::fputs(sweep_table.to_string().c_str(), stdout);

  // --- Axis 2: engine shards ------------------------------------------------
  // One larger simulation split 1/2/4/8 ways.  Shard 1 *is*
  // Simulation::run.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg;
  cfg.seed = opts.seed();
  // Self-profiling on: the shard tables below decompose the wall time into
  // processing vs barrier wait.  The profiler is passive, so the identity
  // checks still hold -- they compare profile-scrubbed JSON (the profile
  // block holds host wall times, nondeterministic by nature).
  cfg.profile = true;
  if (opts.quick()) {
    cfg.warmup_ns = 5'000;
    cfg.measure_ns = 20'000;
  } else {
    cfg.warmup_ns = 20'000;
    cfg.measure_ns = 200'000;
  }
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0,
                              opts.seed() ^ 0x5EEDu};

  TextTable shard_table({"shards", "threads used", "wall s", "Mevents/s",
                         "barrier frac", "imbalance", "identical to 1-shard"});
  std::string shard_baseline;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SimResult result;
    PointManifest manifest;
    ShardedSimulation sim = ShardedSimulation::open_loop(
        subnet, cfg, traffic, /*offered_load=*/0.6, {shards, /*threads=*/0});
    const double wall = wall_of([&] { result = sim.run(); });
    manifest.sim_seed = cfg.seed;
    manifest.traffic_seed = traffic.seed;
    manifest.wall_seconds = wall;
    manifest.events_processed = result.events_processed;
    manifest.events_scheduled = result.events_scheduled;
    manifest.events_per_sec =
        wall > 0.0 ? static_cast<double>(result.events_processed) / wall : 0.0;
    manifest.threads = sim.threads_used();
    manifest.shards = shards;
    manifest.queue = sim.queue_stats();
    manifest.profile = result.profile;
    report.add("sharded @" + std::to_string(shards), result, manifest);
    // Identity compares profile-scrubbed JSON: host wall times differ
    // run-to-run, everything the simulation computed must not.
    SimResult scrubbed = result;
    scrubbed.profile = ProfileSummary{};
    const std::string json = to_json(scrubbed);
    if (shards == 1) shard_baseline = json;
    const bool identical = json == shard_baseline;
    shard_table.add_row(
        {std::to_string(shards), std::to_string(sim.threads_used()),
         TextTable::num(wall, 3),
         TextTable::num(manifest.events_per_sec / 1e6, 2),
         TextTable::num(result.profile.barrier_wait_fraction(), 3),
         TextTable::num(result.profile.mean_imbalance, 2),
         identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr, "FATAL: sharded result diverged at %u shards\n",
                   shards);
      return 1;
    }
  }
  std::fputs(shard_table.to_string().c_str(), stdout);

  // --- Axis 3: shards on a big fabric ---------------------------------------
  // FT(16,4): 8192 nodes / 3584 switches / 65536 total ports -- the fabric
  // the struct-of-arrays hot-state layout targets.  Shard speedup on the
  // small FT(4,3) above is barrier-dominated; this is where sharding has to
  // earn its keep.  Full MLID cannot address this fabric (LMC 9), so the
  // big point runs PartialMlid at LMC 2 like the scale suite.
  std::puts("\nbig fabric: FT(16,4), 8192 nodes / 65536 total ports,"
            " partial-mlid LMC 2");
  const FatTreeFabric big_fabric{FatTreeParams(16, 4)};
  const Subnet big_subnet(
      big_fabric,
      std::make_unique<PartialMlidRouting>(big_fabric.params(), Lmc{2}));
  SimConfig big_cfg;
  big_cfg.seed = opts.seed();
  big_cfg.profile = true;
  if (opts.quick()) {
    big_cfg.warmup_ns = 500;
    big_cfg.measure_ns = 2'000;
  } else {
    big_cfg.warmup_ns = 2'000;
    big_cfg.measure_ns = 10'000;
  }
  const TrafficConfig big_traffic{TrafficKind::kUniform, 0.2, 0,
                                  opts.seed() ^ 0xB16Fu};

  TextTable big_table({"shards", "threads used", "wall s", "Mevents/s",
                       "barrier frac", "imbalance", "identical to 1-shard"});
  std::string big_baseline;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SimResult result;
    PointManifest manifest;
    ShardedSimulation sim = ShardedSimulation::open_loop(
        big_subnet, big_cfg, big_traffic, /*offered_load=*/0.3,
        {shards, /*threads=*/0});
    const double wall = wall_of([&] { result = sim.run(); });
    manifest.sim_seed = big_cfg.seed;
    manifest.traffic_seed = big_traffic.seed;
    manifest.wall_seconds = wall;
    manifest.events_processed = result.events_processed;
    manifest.events_scheduled = result.events_scheduled;
    manifest.events_per_sec =
        wall > 0.0 ? static_cast<double>(result.events_processed) / wall : 0.0;
    manifest.threads = sim.threads_used();
    manifest.shards = shards;
    manifest.queue = sim.queue_stats();
    manifest.profile = result.profile;
    report.add("big-fabric @" + std::to_string(shards), result, manifest);
    SimResult scrubbed = result;
    scrubbed.profile = ProfileSummary{};
    const std::string json = to_json(scrubbed);
    if (shards == 1) big_baseline = json;
    const bool identical = json == big_baseline;
    big_table.add_row(
        {std::to_string(shards), std::to_string(sim.threads_used()),
         TextTable::num(wall, 3),
         TextTable::num(manifest.events_per_sec / 1e6, 2),
         TextTable::num(result.profile.barrier_wait_fraction(), 3),
         TextTable::num(result.profile.mean_imbalance, 2),
         identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: big-fabric result diverged at %u shards\n", shards);
      return 1;
    }
  }
  std::fputs(big_table.to_string().c_str(), stdout);

  std::puts("\nExpected shape: sweep threads scale near-linearly up to the\n"
            "core count (independent points); shards pay a window-barrier\n"
            "tax, so their speedup is sublinear and only appears when one\n"
            "simulation is too big to wait for.");
  std::printf("\n(wrote %s)\n", report.write().c_str());
  return 0;
}
