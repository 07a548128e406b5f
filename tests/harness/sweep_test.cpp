#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <set>

#include "harness/report.hpp"

namespace mlid {
namespace {

FigureSpec tiny_spec() {
  FigureSpec spec;
  spec.title = "test figure";
  spec.m = 4;
  spec.n = 2;
  spec.traffic = {TrafficKind::kUniform, 0.2, 0, 3};
  spec.sim.warmup_ns = 4'000;
  spec.sim.measure_ns = 12'000;
  spec.sim.seed = 2;
  spec.vl_counts = {1, 2};
  spec.loads = {0.2, 0.6};
  return spec;
}

TEST(Sweep, ProducesTheFullGridInOrder) {
  const FigureSpec spec = tiny_spec();
  const auto points = run_sweep(spec, {.threads = 1});
  ASSERT_EQ(points.size(), 2u * 2u * 2u);  // schemes x vls x loads
  // Grid order: scheme-major, then VLs, then loads.
  EXPECT_EQ(points[0].scheme, "SLID");
  EXPECT_EQ(points[0].vls, 1);
  EXPECT_DOUBLE_EQ(points[0].load, 0.2);
  EXPECT_EQ(points.back().scheme, "MLID");
  EXPECT_EQ(points.back().vls, 2);
  EXPECT_DOUBLE_EQ(points.back().load, 0.6);
  for (const auto& p : points) {
    EXPECT_GT(p.result.packets_measured, 0u);
  }
}

TEST(Sweep, ThreadCountDoesNotChangeResults) {
  const FigureSpec spec = tiny_spec();
  const auto serial = run_sweep(spec, {.threads = 1});
  const auto parallel = run_sweep(spec, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].result.avg_latency_ns,
                     parallel[i].result.avg_latency_ns);
    EXPECT_EQ(serial[i].result.packets_measured,
              parallel[i].result.packets_measured);
  }
}

TEST(Sweep, RunnerIsDeterministicAcrossThreadCounts) {
  // The stronger form of the test above: every serialized result field is
  // byte-identical between a serial and a heavily threaded sweep, and the
  // reproducibility half of the manifest (seeds, event counts, queue
  // structure) matches too.  Only wall-clock fields may differ.
  const FigureSpec spec = tiny_spec();
  const auto serial = run_sweep(spec, {.threads = 1});
  const auto parallel = run_sweep(spec, {.threads = 8});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(to_json(serial[i].result), to_json(parallel[i].result))
        << "point " << i;
    EXPECT_EQ(serial[i].manifest.sim_seed, parallel[i].manifest.sim_seed);
    EXPECT_EQ(serial[i].manifest.traffic_seed,
              parallel[i].manifest.traffic_seed);
    EXPECT_EQ(serial[i].manifest.events_processed,
              parallel[i].manifest.events_processed);
    EXPECT_EQ(serial[i].manifest.events_scheduled,
              parallel[i].manifest.events_scheduled);
    EXPECT_TRUE(serial[i].manifest.queue == parallel[i].manifest.queue);
    // The manifest records the *actual* pool size, never the 0 placeholder.
    EXPECT_EQ(serial[i].manifest.threads, 1u);
    EXPECT_GE(parallel[i].manifest.threads, 1u);
    EXPECT_LE(parallel[i].manifest.threads, 8u);
    EXPECT_EQ(serial[i].manifest.shards, 1u);
  }
}

TEST(Sweep, ShardedPointsMatchOneShardPoints) {
  // The shard count only partitions each point's fabric; every result
  // field must match the one-shard sweep.
  const FigureSpec spec = tiny_spec();
  const auto seq = run_sweep(spec, {.threads = 1});
  const auto sharded = run_sweep(spec, {.threads = 1, .shards = 2});
  ASSERT_EQ(seq.size(), sharded.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(to_json(seq[i].result), to_json(sharded[i].result))
        << "point " << i;
    EXPECT_EQ(sharded[i].manifest.shards, 2u);
  }
}

TEST(Sweep, PointSeedsDependOnCoordinatesNotGridShape) {
  // The old derivation (base * K + job_index) changed every point's seed
  // whenever the grid grew.  Now the seed is a pure function of the point's
  // own coordinates: adding loads must leave existing points' results
  // bit-identical.
  FigureSpec small = tiny_spec();
  FigureSpec large = tiny_spec();
  large.loads = {0.2, 0.4, 0.6};  // insert a load between the two existing
  const auto small_points = run_sweep(small, {.threads = 1});
  const auto large_points = run_sweep(large, {.threads = 1});
  for (const auto& sp : small_points) {
    bool found = false;
    for (const auto& lp : large_points) {
      if (lp.scheme == sp.scheme && lp.vls == sp.vls && lp.load == sp.load) {
        found = true;
        EXPECT_EQ(lp.manifest.sim_seed, sp.manifest.sim_seed);
        EXPECT_EQ(lp.manifest.traffic_seed, sp.manifest.traffic_seed);
        EXPECT_EQ(lp.result.packets_measured, sp.result.packets_measured);
        EXPECT_EQ(lp.result.avg_latency_ns, sp.result.avg_latency_ns);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Sweep, PointSeedDerivationSeparatesCoordinates) {
  // Base 0 must not collapse the grid (0 * K + i degenerated to job order).
  std::set<std::uint64_t> seeds;
  for (const std::string_view scheme : {"SLID", "MLID"}) {
    for (const int vls : {1, 2, 4}) {
      for (const double load : {0.1, 0.2, 0.9}) {
        seeds.insert(sweep_point_seed(0, scheme, vls, load));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 2u * 3u * 3u);
  // Distinct bases decorrelate, and the sim/traffic domains never collide.
  EXPECT_NE(sweep_point_seed(0, "SLID", 1, 0.2),
            sweep_point_seed(1, "SLID", 1, 0.2));
  EXPECT_NE(sweep_traffic_seed(0, 1, 0.2),
            sweep_point_seed(0, "SLID", 1, 0.2));
  EXPECT_NE(sweep_traffic_seed(0, 1, 0.2), sweep_traffic_seed(0, 1, 0.4));
}

TEST(Sweep, BothSchemesFaceTheIdenticalWorkload) {
  // The traffic stream is a function of (base, vls, load) only: at every
  // grid point SLID and MLID see the same destinations and arrivals, so
  // their comparison measures routing, not traffic luck.
  const FigureSpec spec = tiny_spec();
  const auto points = run_sweep(spec, {.threads = 1});
  for (const auto& a : points) {
    for (const auto& b : points) {
      if (a.vls == b.vls && a.load == b.load) {
        EXPECT_EQ(a.manifest.traffic_seed, b.manifest.traffic_seed);
      }
      if (a.scheme != b.scheme) {
        EXPECT_NE(a.manifest.sim_seed, b.manifest.sim_seed);
      }
    }
  }
}

TEST(Sweep, ManifestRecordsTheRun) {
  const FigureSpec spec = tiny_spec();
  const auto points = run_sweep(spec, {.threads = 1});
  for (const auto& p : points) {
    EXPECT_EQ(p.manifest.sim_seed,
              sweep_point_seed(spec.sim.seed, p.scheme, p.vls, p.load));
    EXPECT_GT(p.manifest.events_processed, 0u);
    EXPECT_EQ(p.manifest.events_processed, p.result.events_processed);
    // An open-loop run ends at a wall-clock cutoff with work still queued,
    // so scheduled must exceed processed; events/sec divides by processed.
    EXPECT_GE(p.manifest.events_scheduled, p.manifest.events_processed);
    EXPECT_EQ(p.manifest.events_scheduled, p.result.events_scheduled);
    EXPECT_GE(p.manifest.wall_seconds, 0.0);
    // events_per_sec is 0 only if the clock read 0 wall time.
    EXPECT_TRUE(p.manifest.events_per_sec > 0.0 ||
                p.manifest.wall_seconds == 0.0);
    // Queue internals ride along.
    EXPECT_GT(p.manifest.queue.buckets, 0u);
    EXPECT_EQ(p.manifest.queue.events_processed, p.manifest.events_processed);
  }
}

TEST(Sweep, ShardedEventsPerSecKeepsTheSequentialDefinition) {
  // events_per_sec = fleet-processed events / driver wall time, the same
  // definition one-shard points use -- NOT per-shard rates summed or the
  // busiest shard's rate.  A sharded point processes exactly the events
  // the one-shard point does, so the numerator must be identical and the
  // rate must divide it by the manifest's own wall_seconds.
  FigureSpec spec = tiny_spec();
  spec.loads = {0.6};
  const auto seq = run_sweep(spec, {.threads = 1});
  const auto sharded = run_sweep(spec, {.threads = 1, .shards = 2});
  ASSERT_EQ(seq.size(), sharded.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    // Same fleet total as the sequential engine dispatched.
    EXPECT_EQ(sharded[i].manifest.events_processed,
              seq[i].manifest.events_processed);
    for (const auto& p : {seq[i], sharded[i]}) {
      if (p.manifest.wall_seconds > 0.0) {
        EXPECT_DOUBLE_EQ(
            p.manifest.events_per_sec,
            static_cast<double>(p.manifest.events_processed) /
                p.manifest.wall_seconds);
      }
    }
  }
}

TEST(Sweep, ProfileOptionFillsEveryManifest) {
  FigureSpec spec = tiny_spec();
  spec.loads = {0.6};
  const auto plain = run_sweep(spec, {.threads = 1});
  SweepOptions options;
  options.threads = 1;
  options.profile = true;
  const auto profiled = run_sweep(spec, options);
  ASSERT_EQ(plain.size(), profiled.size());
  for (std::size_t i = 0; i < profiled.size(); ++i) {
    // Passive: the profiled sweep's results match the plain sweep's.
    EXPECT_EQ(to_json(plain[i].result), [&] {
      SimResult scrubbed = profiled[i].result;
      scrubbed.profile = ProfileSummary{};
      return to_json(scrubbed);
    }());
    const ProfileSummary& p = profiled[i].manifest.profile;
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.shards, 1u);
    EXPECT_EQ(p.queue_pops, profiled[i].manifest.events_processed);
    // Unprofiled sweeps carry the disabled all-zero block.
    EXPECT_FALSE(plain[i].manifest.profile.enabled);
    EXPECT_EQ(plain[i].manifest.profile, ProfileSummary{});
  }
}

TEST(Sweep, OptionsOverrideTelemetry) {
  const FigureSpec spec = tiny_spec();
  SweepOptions options;
  options.threads = 1;
  options.telemetry = false;
  const auto points = run_sweep(spec, options);
  for (const auto& p : points) {
    EXPECT_GT(p.manifest.queue.buckets, 0u);
    EXPECT_FALSE(p.result.telemetry);
  }
  // Defaults inherit from the spec instead of overriding it.
  FigureSpec no_telemetry = tiny_spec();
  no_telemetry.sim.telemetry = false;
  no_telemetry.loads = {0.2};
  no_telemetry.vl_counts = {1};
  const auto inherited = run_sweep(no_telemetry, {.threads = 1});
  for (const auto& p : inherited) EXPECT_FALSE(p.result.telemetry);
}

TEST(Sweep, QuickOptionShrinksTheGrid) {
  FigureSpec spec = tiny_spec();
  spec.loads = FigureSpec::kDefaultLoads();
  const auto points = run_sweep(spec, {.threads = 1, .quick = true});
  // 2 schemes x 2 vls x the 3 smoke loads.
  EXPECT_EQ(points.size(), 2u * 2u * 3u);
}

TEST(Sweep, CcOverrideAppliesToEveryPoint) {
  FigureSpec spec = tiny_spec();
  CcConfig cc;
  cc.enabled = true;
  const auto points = run_sweep(spec, {.threads = 1, .cc = cc});
  ASSERT_FALSE(points.empty());
  for (const auto& p : points) EXPECT_TRUE(p.result.cc.enabled);
  // An unset option inherits the spec's own (disabled) CC config.
  const auto inherited = run_sweep(spec, {.threads = 1});
  for (const auto& p : inherited) EXPECT_FALSE(p.result.cc.enabled);
}

TEST(Sweep, SaturationThroughputPicksTheSeriesMaximum) {
  const FigureSpec spec = tiny_spec();
  const auto points = run_sweep(spec, {.threads = 1});
  const double sat = saturation_throughput(points, "MLID", 1);
  double expected = 0.0;
  for (const auto& p : points) {
    if (p.scheme == "MLID" && p.vls == 1) {
      expected = std::max(expected, p.result.accepted_bytes_per_ns_per_node);
    }
  }
  EXPECT_DOUBLE_EQ(sat, expected);
  EXPECT_EQ(saturation_throughput(points, "MLID", 4), 0.0);
}

TEST(Sweep, RenderersIncludeEverySample) {
  const FigureSpec spec = tiny_spec();
  const auto points = run_sweep(spec, {.threads = 1});
  const std::string table = render_figure_table(spec, points);
  EXPECT_NE(table.find("test figure"), std::string::npos);
  EXPECT_NE(table.find("SLID 1VL"), std::string::npos);
  EXPECT_NE(table.find("MLID 2VL"), std::string::npos);
  const std::string csv = render_figure_csv(spec, points);
  // Header + 8 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(points.size()) + 1);
  const std::string summary = render_figure_summary(spec, points);
  EXPECT_NE(summary.find("MLID/SLID saturation throughput @1VL"),
            std::string::npos);
}

}  // namespace
}  // namespace mlid
