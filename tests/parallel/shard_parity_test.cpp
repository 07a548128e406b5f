// Acceptance gate for the sharded conservative-sync engine: every shard
// count and every thread count must produce results bit-identical to the
// one-shard run -- open-loop, burst, live-SM fault, and congestion-control
// scenarios alike.  Comparison goes through the JSON export, which
// serializes every public result field (including the latency means, so
// float rounding is part of the contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "harness/report.hpp"
#include "obs/stream.hpp"
#include "parallel/sharded.hpp"
#include "routing/fat_tree_routing.hpp"
#include "sim/engine.hpp"
#include "../sim/heap_event_queue.hpp"

namespace mlid {
namespace {

SimConfig quick_cfg() {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 3;
  return cfg;
}

constexpr std::uint32_t kShardCounts[] = {1, 2, 4};
constexpr std::uint32_t kThreadCounts[] = {1, 2, 4};

/// Asserts `run(par)` serializes identically for every shards x threads
/// combination; the {1, 1} run is the reference.
template <typename Run>
void expect_identity_across_shards_and_threads(Run run) {
  const std::string reference = to_json(run(ShardOptions{1, 1}));
  for (const std::uint32_t shards : kShardCounts) {
    for (const std::uint32_t threads : kThreadCounts) {
      EXPECT_EQ(reference, to_json(run(ShardOptions{shards, threads})))
          << "shards " << shards << " threads " << threads;
    }
  }
}

TEST(ShardParity, CanonicalOrderIsContentDetermined) {
  // Same-timestamp events must pop in (kind, dev, port, vl, corder) order
  // regardless of push order, on the engine's queue and the heap oracle.
  auto check = [](auto q) {
    q.push(10, EventKind::kTailOut, 2, 1);
    q.push(10, EventKind::kHeadArrive, 5, 1);
    q.push(10, EventKind::kHeadArrive, 3, 2, 0, kInvalidPacket, 1);
    q.push(10, EventKind::kHeadArrive, 3, 1, 0, kInvalidPacket, 4);
    q.push(5, EventKind::kTailOut, 9, 0);
    const Event first = q.pop();
    EXPECT_EQ(first.time, 5);
    EXPECT_EQ(first.dev, 9u);
    const Event a = q.pop();  // kHeadArrive sorts before kTailOut
    EXPECT_EQ(a.kind, EventKind::kHeadArrive);
    EXPECT_EQ(a.dev, 3u);
    EXPECT_EQ(int{a.port}, 1);
    const Event b = q.pop();
    EXPECT_EQ(b.dev, 3u);
    EXPECT_EQ(int{b.port}, 2);
    const Event c = q.pop();
    EXPECT_EQ(c.dev, 5u);
    const Event d = q.pop();
    EXPECT_EQ(d.kind, EventKind::kTailOut);
    EXPECT_EQ(d.dev, 2u);
    EXPECT_TRUE(q.empty());
  };
  check(EventQueue{});
  check(HeapEventQueue{});
}

TEST(ShardParity, OpenLoopRunsAreBitIdentical) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  for (const double load : {0.2, 0.6, 0.9}) {
    SCOPED_TRACE(load);
    expect_identity_across_shards_and_threads([&](ShardOptions par) {
      ShardedSimulation sim = ShardedSimulation::open_loop(
          subnet, quick_cfg(), traffic, load, par);
      EXPECT_EQ(sim.num_shards(), par.shards);
      EXPECT_LE(sim.threads_used(), par.shards);
      const SimResult r = sim.run();
      EXPECT_GT(r.packets_delivered, 0u);
      return r;
    });
  }
}

TEST(ShardParity, BurstRunsAreBitIdentical) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const auto workload = all_to_all_personalized(16, 512);
  expect_identity_across_shards_and_threads([&](ShardOptions par) {
    const BurstResult r =
        ShardedSimulation::burst(subnet, quick_cfg(), workload, par)
            .run_to_completion();
    EXPECT_GT(r.messages, 0u);
    EXPECT_EQ(r.events_processed, r.events_scheduled);
    return r;
  });
}

TEST(ShardParity, LiveSmFaultRunsAreBitIdentical) {
  // The control plane (faults, traps, sweeps, LFT programs) runs as
  // sequential global steps inside the driver; its effects must land
  // identically on any partition.
  const FatTreeParams params(4, 3);
  expect_identity_across_shards_and_threads([&](ShardOptions par) {
    FatTreeFabric fabric{params};
    const Subnet subnet(fabric, "MLID");
    SubnetManager sm(fabric, subnet);
    const FaultSchedule faults = FaultSchedule::random_uplink_failures(
        fabric, /*count=*/2, /*fail_at=*/8'000, /*seed=*/5, /*recover_at=*/
        18'000);
    const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 4};
    const SimResult r = ShardedSimulation::open_loop(subnet, quick_cfg(),
                                                     traffic, 0.6, par,
                                                     {&sm, faults})
                            .run();
    // Meaningful scenario: the fault machinery actually fired.
    EXPECT_GT(r.sm_traps, 0u);
    EXPECT_GT(r.packets_dropped, 0u);
    return r;
  });
}

TEST(ShardParity, CongestionControlRunsAreBitIdentical) {
  // CC couples shards through BECN echoes (delivered-data events at the
  // *source* node) and per-node CCT state; the lookahead shrinks to the
  // BECN echo delay and the owner-exclusive CC state merges at the end.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  SimConfig cfg = quick_cfg();
  cfg.cc.enabled = true;
  // Hot-spot traffic so FECN marking actually triggers.
  const TrafficConfig traffic{TrafficKind::kCentric, 0.4, 3, 9};
  expect_identity_across_shards_and_threads([&](ShardOptions par) {
    const SimResult r =
        ShardedSimulation::open_loop(subnet, cfg, traffic, 0.9, par).run();
    EXPECT_GT(r.cc.fecn_marked, 0u);
    EXPECT_GT(r.cc.becn_sent, 0u);
    return r;
  });
}

TEST(ShardParity, QueueStatsAccountForEveryEvent) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  ShardedSimulation sim = ShardedSimulation::open_loop(
      subnet, quick_cfg(), traffic, 0.6, {4, 0});
  const SimResult r = sim.run();
  const EventQueueStats stats = sim.queue_stats();
  EXPECT_EQ(stats.events_scheduled, r.events_scheduled);
  EXPECT_EQ(stats.events_processed, r.events_processed);
}

// FT(16,4)'s shards narrow their buckets by different amounts; every ring
// spans the same horizon, so the merged bucket count and width must still
// describe one ring: the finest shard's.
TEST(ShardParity, QueueStatsDescribeTheFinestShardsRing) {
  const FatTreeFabric fabric{FatTreeParams(16, 4)};
  const Subnet subnet(fabric, std::make_unique<PartialMlidRouting>(
                                  fabric.params(), Lmc{2}));
  SimConfig cfg;
  cfg.warmup_ns = 500;
  cfg.measure_ns = 2'000;
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  ShardedSimulation sim =
      ShardedSimulation::open_loop(subnet, cfg, traffic, 0.3, {4, 1});
  (void)sim.run();
  const EventQueueStats stats = sim.queue_stats();
  EXPECT_LT(stats.bucket_width_ns, SimTime{1} << EventQueue::kMaxWidthLog2);
  EXPECT_EQ(stats.buckets * stats.bucket_width_ns,
            static_cast<SimTime>(EventQueue::kBuckets)
                << EventQueue::kMaxWidthLog2);
}

// Simulation::run is the one-shard case of the same driver: with every
// observer on (live SM with faults, CC, sampler, metrics stream, profile)
// it must serialize exactly like ShardedSimulation{1, 1}.
TEST(ShardParity, SimulationIsTheOneShardCase) {
  const FatTreeParams params(4, 3);
  SimConfig cfg = quick_cfg();
  cfg.cc.enabled = true;
  cfg.sample_interval_ns = 1'000;
  cfg.profile = true;
  const TrafficConfig traffic{TrafficKind::kCentric, 0.4, 3, 9};
  const auto run = [&](bool sharded) {
    FatTreeFabric fabric{params};
    const Subnet subnet(fabric, "MLID");
    SubnetManager sm(fabric, subnet);
    MetricsStreamer stream(::testing::TempDir() + "/one_shard_" +
                               std::to_string(sharded) + ".jsonl",
                           3'000);
    OpenLoopOptions options;
    options.live_sm = &sm;
    options.faults = FaultSchedule::random_uplink_failures(
        fabric, /*count=*/2, /*fail_at=*/8'000, /*seed=*/5,
        /*recover_at=*/18'000);
    options.metrics = &stream;
    SimResult r =
        sharded ? ShardedSimulation::open_loop(subnet, cfg, traffic, 0.9,
                                               {1, 1}, options)
                      .run()
                : Simulation::open_loop(subnet, cfg, traffic, 0.9, options)
                      .run();
    EXPECT_TRUE(r.profile.enabled);
    EXPECT_FALSE(r.timeline.samples.empty());
    EXPECT_GT(r.sm_traps, 0u);
    EXPECT_GT(r.cc.becn_sent, 0u);
    r.profile = ProfileSummary{};  // host wall times
    return to_json(r);
  };
  EXPECT_EQ(run(false), run(true));

  const FatTreeFabric fabric{params};
  const Subnet subnet(fabric, "MLID");
  const auto workload = all_to_all_personalized(16, 512);
  EXPECT_EQ(to_json(Simulation::burst(subnet, quick_cfg(), workload)
                        .run_to_completion()),
            to_json(ShardedSimulation::burst(subnet, quick_cfg(), workload,
                                             {1, 1})
                        .run_to_completion()));
}

// A ShardedSimulation is returned by value, so it must survive a move: the
// shards own their outboxes and read the partition from the heap.
TEST(ShardParity, MovedDriversMatchUnmovedRuns) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  const ShardOptions par{4, 2};

  const SimResult unmoved =
      ShardedSimulation::open_loop(subnet, quick_cfg(), traffic, 0.6, par)
          .run();
  std::optional<ShardedSimulation> open;
  {
    ShardedSimulation built =
        ShardedSimulation::open_loop(subnet, quick_cfg(), traffic, 0.6, par);
    open.emplace(std::move(built));
  }
  EXPECT_EQ(to_json(unmoved), to_json(open->run()));

  const auto workload = all_to_all_personalized(16, 512);
  const BurstResult unmoved_burst =
      ShardedSimulation::burst(subnet, quick_cfg(), workload, par)
          .run_to_completion();
  std::optional<ShardedSimulation> burst;
  {
    ShardedSimulation built =
        ShardedSimulation::burst(subnet, quick_cfg(), workload, par);
    burst.emplace(std::move(built));
  }
  EXPECT_EQ(to_json(unmoved_burst), to_json(burst->run_to_completion()));
}

}  // namespace
}  // namespace mlid
