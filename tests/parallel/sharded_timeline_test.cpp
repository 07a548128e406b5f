// Regression coverage for the sharded interval sampler.  The original
// sharded driver silently dropped SimConfig::sample_interval_ns: every
// sharded run came back with an empty timeline while the sequential run
// produced one, so dashboards fed from sharded sweeps lost their
// time-resolved series without any error.  The sampler is now driver-owned
// (windows are clipped at each pending sample time and every shard's gauges
// merge into one TimelineSample), which makes the timeline bit-identical
// for every shard and thread count -- asserted here through the JSON
// export, like the other parity gates.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/expect.hpp"
#include "harness/report.hpp"
#include "parallel/sharded.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig sampled_cfg() {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 7;
  cfg.sample_interval_ns = 1'000;
  return cfg;
}

/// The one-shard run every shards x threads combination must reproduce.
SimResult run_sampled(const Subnet& subnet, const SimConfig& cfg,
                      ShardOptions par) {
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  return ShardedSimulation::open_loop(subnet, cfg, traffic, 0.6, par).run();
}

TEST(ShardedTimeline, SampledRunsAreBitIdentical) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const SimResult reference = run_sampled(subnet, sampled_cfg(), {1, 1});
  ASSERT_TRUE(reference.timeline.enabled());
  ASSERT_FALSE(reference.timeline.samples.empty());
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      const SimResult sharded =
          run_sampled(subnet, sampled_cfg(), {shards, threads});
      // The regression this pins: sharded runs used to come back with
      // timeline.enabled() == false whenever shards > 1.
      EXPECT_TRUE(sharded.timeline.enabled()) << "shards " << shards;
      EXPECT_EQ(sharded.timeline.samples.size(),
                reference.timeline.samples.size())
          << "shards " << shards << " threads " << threads;
      EXPECT_EQ(to_json(reference), to_json(sharded))
          << "shards " << shards << " threads " << threads;
    }
  }
}

TEST(ShardedTimeline, DecimationMatchesOneShard) {
  // Force the cap low enough that the sampler decimates mid-run; every
  // partition must reproduce the one-shard doubling cadence.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = sampled_cfg();
  cfg.sample_interval_ns = 200;
  cfg.timeline_max_samples = 16;
  const SimResult reference = run_sampled(subnet, cfg, {1, 1});
  ASSERT_GT(reference.timeline.interval_ns, 200);  // decimation actually fired
  for (const std::uint32_t shards : {2u, 4u}) {
    const SimResult sharded = run_sampled(subnet, cfg, {shards, 0});
    EXPECT_EQ(sharded.timeline.interval_ns, reference.timeline.interval_ns)
        << "shards " << shards;
    EXPECT_EQ(to_json(reference), to_json(sharded)) << "shards " << shards;
  }
}

TEST(ShardedTimeline, BurstSamplingIsRejected) {
  // Burst mode has no fixed horizon for the driver to pace samples against;
  // the combination must fail loudly, not silently drop the timeline.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  const auto workload = all_to_all_personalized(4, 256);
  SimConfig cfg;
  cfg.sample_interval_ns = 1'000;
  EXPECT_THROW(ShardedSimulation::burst(subnet, cfg, workload, {2, 0}),
               ContractViolation);
}

}  // namespace
}  // namespace mlid
