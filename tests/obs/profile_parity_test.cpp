// The observability passive contract, asserted: profiling and metrics
// streaming read host clocks and existing counters only, so simulation
// results are byte-identical with them on or off, for every shard x thread
// combination.  Comparison goes through the JSON
// export with the profile block scrubbed (its wall times are host noise by
// design; everything else must match to the last bit).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/report.hpp"
#include "obs/stream.hpp"
#include "parallel/sharded.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig quick_cfg(bool profile) {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 3;
  cfg.profile = profile;
  return cfg;
}

// Profile-scrubbed JSON: what byte-identity means for profiled results.
std::string scrubbed_json(SimResult r) {
  r.profile = ProfileSummary{};
  return to_json(r);
}

TEST(ProfileParity, OneShardProfilingIsPassive) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  for (const double load : {0.2, 0.6}) {
    const SimResult off =
        Simulation::open_loop(subnet, quick_cfg(false), traffic, load)
            .run();
    const SimResult on =
        Simulation::open_loop(subnet, quick_cfg(true), traffic, load)
            .run();
    EXPECT_TRUE(on.profile.enabled);
    EXPECT_EQ(to_json(off), scrubbed_json(on)) << "load " << load;
  }
}

TEST(ProfileParity, ShardedProfilingIsPassiveForEveryShardThreadCombo) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  constexpr double kLoad = 0.6;
  // The unprofiled one-shard run is the reference for the whole matrix.
  const std::string reference = to_json(
      Simulation::open_loop(subnet, quick_cfg(false), traffic, kLoad).run());
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      ShardedSimulation sim = ShardedSimulation::open_loop(
          subnet, quick_cfg(true), traffic, kLoad, {shards, threads});
      const SimResult on = sim.run();
      EXPECT_TRUE(on.profile.enabled);
      EXPECT_EQ(on.profile.shards, shards);
      EXPECT_EQ(reference, scrubbed_json(on))
          << "shards " << shards << " threads " << threads;
    }
  }
}

TEST(ProfileParity, MetricsStreamingIsPassive) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  constexpr double kLoad = 0.6;
  const std::string reference = to_json(
      Simulation::open_loop(subnet, quick_cfg(false), traffic, kLoad).run());
  // A stream boundary only splits a conservative-sync window, and any
  // window partition is a valid schedule.
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      MetricsStreamer stream(::testing::TempDir() + "/parity_shard" +
                                 std::to_string(shards) + "_" +
                                 std::to_string(threads) + ".jsonl",
                             3'000);
      OpenLoopOptions options;
      options.metrics = &stream;
      ShardedSimulation sim = ShardedSimulation::open_loop(
          subnet, quick_cfg(false), traffic, kLoad, {shards, threads},
          options);
      EXPECT_EQ(reference, to_json(sim.run()))
          << "shards " << shards << " threads " << threads;
    }
  }
}

TEST(ProfileParity, FlightRecorderWorksUnderSharding) {
  // Satellite of the same contract: per-device rings are shard-safe
  // (devices are owner-exclusive), so a sharded run with the recorder on
  // still produces byte-identical results and can dump a ring on demand.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  constexpr double kLoad = 0.9;  // drops likely: gives the recorder a cause
  SimConfig cfg = quick_cfg(false);
  cfg.flight_recorder_depth = 32;
  const std::string reference = to_json(
      Simulation::open_loop(subnet, quick_cfg(false), traffic, kLoad).run());
  for (const std::uint32_t shards : {2u, 4u}) {
    ShardedSimulation sim = ShardedSimulation::open_loop(
        subnet, cfg, traffic, kLoad, {shards, 0});
    const SimResult r = sim.run();
    EXPECT_EQ(reference, to_json(r)) << "shards " << shards;
    // The dump accessor must be callable either way; when a drop froze a
    // ring, its cause names the owning shard.
    const FlightRecorderDump& dump = sim.flight_dump();
    if (dump.valid()) {
      EXPECT_NE(dump.cause.find("shard"), std::string::npos) << dump.cause;
      EXPECT_FALSE(dump.events.empty());
    }
  }
}

}  // namespace
}  // namespace mlid
