// Engine self-profiler content checks: a profiled run must come back with a
// populated ProfileSummary whose counters are consistent with the result it
// rode along with, on one shard and on many.  (Byte-identity of the
// *results* under profiling lives in profile_parity_test.cpp.)
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/profile.hpp"
#include "parallel/sharded.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig quick_profiled() {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 7;
  cfg.profile = true;
  return cfg;
}

TEST(Profile, DefaultSummaryIsDisabledAndZero) {
  const ProfileSummary p;
  EXPECT_FALSE(p.enabled);
  EXPECT_EQ(p.shards, 0u);
  EXPECT_EQ(p.windows, 0u);
  EXPECT_EQ(p.total_wall_ns, 0u);
  EXPECT_TRUE(p.shard_phases.empty());
  EXPECT_DOUBLE_EQ(p.barrier_wait_fraction(), 0.0);
  EXPECT_EQ(p, ProfileSummary{});
}

TEST(Profile, BarrierWaitFraction) {
  ProfileSummary p;
  p.processing_ns = 3'000;
  p.barrier_wait_ns = 1'000;
  EXPECT_DOUBLE_EQ(p.barrier_wait_fraction(), 0.25);
  p.barrier_wait_ns = 0;
  EXPECT_DOUBLE_EQ(p.barrier_wait_fraction(), 0.0);
  p.processing_ns = 0;
  EXPECT_DOUBLE_EQ(p.barrier_wait_fraction(), 0.0);  // nothing measured
}

TEST(Profile, UnprofiledRunCarriesDisabledSummary) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = quick_profiled();
  cfg.profile = false;
  const SimResult r =
      Simulation::open_loop(subnet, cfg, {TrafficKind::kUniform, 0.2, 0, 11},
                            0.4)
          .run();
  EXPECT_FALSE(r.profile.enabled);
  EXPECT_EQ(r.profile, ProfileSummary{});
}

TEST(Profile, OneShardRunPopulatesTheWindowTaxonomy) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const SimResult r =
      Simulation::open_loop(subnet, quick_profiled(),
                            {TrafficKind::kUniform, 0.2, 0, 11}, 0.4)
          .run();
  const ProfileSummary& p = r.profile;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.shards, 1u);
  EXPECT_EQ(p.threads, 1u);
  // One shard runs the same window loop: with no sampler, stream or
  // control plane the whole run is a single window of unbounded lookahead,
  // and nothing crosses a shard boundary.
  EXPECT_EQ(p.windows, 1u);
  EXPECT_EQ(p.control_steps, 0u);
  EXPECT_EQ(p.handoff_messages, 0u);
  EXPECT_EQ(p.window_ns_min, p.window_ns_max);
  EXPECT_DOUBLE_EQ(p.max_imbalance, 1.0);
  // The only "barrier" is the loop's own bookkeeping around the drain.
  EXPECT_LT(p.barrier_wait_fraction(), 0.5);
  ASSERT_EQ(p.shard_phases.size(), 1u);
  EXPECT_EQ(p.shard_phases[0].events_processed, r.events_processed);
  EXPECT_EQ(p.shard_phases[0].handoffs_out, 0u);
  EXPECT_GT(p.total_wall_ns, 0u);
  EXPECT_GE(p.total_wall_ns, p.processing_ns);
  EXPECT_EQ(p.processing_ns, p.shard_phases[0].processing_ns);
  // Queue op counters come from the engine's own EventQueueStats.
  EXPECT_EQ(p.queue_pops, r.events_processed);
  EXPECT_EQ(p.queue_pushes, r.events_scheduled);
}

TEST(Profile, ShardedRunPopulatesWindowAndImbalanceStats) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  for (const std::uint32_t shards : {2u, 4u}) {
    ShardedSimulation sim = ShardedSimulation::open_loop(
        subnet, quick_profiled(), {TrafficKind::kUniform, 0.2, 0, 11}, 0.4,
        {shards, 0});
    const SimResult r = sim.run();
    const ProfileSummary& p = r.profile;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.shards, shards);
    EXPECT_EQ(p.threads, sim.threads_used());
    ASSERT_EQ(p.shard_phases.size(), shards);
    EXPECT_GT(p.windows, 0u);
    EXPECT_GT(p.total_wall_ns, 0u);
    // Window widths are simulated time: bounded by the lookahead, positive,
    // min <= mean <= max.
    EXPECT_GT(p.window_ns_min, 0);
    EXPECT_GE(p.window_ns_max, p.window_ns_min);
    EXPECT_GE(p.window_ns_mean, static_cast<double>(p.window_ns_min));
    EXPECT_LE(p.window_ns_mean, static_cast<double>(p.window_ns_max));
    // Per-shard events must sum to the fleet total minus the control-queue
    // dispatches.
    std::uint64_t shard_events = 0;
    std::uint64_t handoffs = 0;
    for (const ShardPhaseProfile& s : p.shard_phases) {
      shard_events += s.events_processed;
      handoffs += s.handoffs_out;
    }
    EXPECT_LE(shard_events, r.events_processed);
    EXPECT_EQ(handoffs, p.handoff_messages);
    // Uniform traffic crosses shards constantly; the mailbox must have
    // carried something.
    EXPECT_GT(p.handoff_messages, 0u);
    // Imbalance factors: busiest / mean >= 1 for every sampled window.
    EXPECT_GE(p.max_imbalance, 1.0);
    EXPECT_GE(p.mean_imbalance, 1.0);
    EXPECT_GE(p.max_imbalance, p.mean_imbalance);
    // Barrier wait only exists inside windows; fraction stays in [0, 1).
    EXPECT_GE(p.barrier_wait_fraction(), 0.0);
    EXPECT_LT(p.barrier_wait_fraction(), 1.0);
    EXPECT_EQ(p.queue_pops, r.events_processed);
  }
}

}  // namespace
}  // namespace mlid
