#include "harness/cli.hpp"

#include <gtest/gtest.h>

#include "harness/sweep.hpp"
#include "obs/stream.hpp"

namespace mlid {
namespace {

CliOptions parse(std::initializer_list<const char*> args) {
  std::vector<char*> argv;
  static char name[] = "prog";
  argv.push_back(name);
  for (const char* a : args) {
    argv.push_back(const_cast<char*>(a));
  }
  return CliOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, Defaults) {
  const CliOptions opts = parse({});
  EXPECT_FALSE(opts.quick());
  EXPECT_FALSE(opts.csv());
  EXPECT_EQ(opts.seed(), 1u);
  EXPECT_EQ(opts.threads(), 0u);
  EXPECT_TRUE(opts.positional().empty());
}

TEST(Cli, ParsesFlags) {
  const CliOptions opts =
      parse({"--quick", "--csv", "--seed=99", "--threads=3", "extra"});
  EXPECT_TRUE(opts.quick());
  EXPECT_TRUE(opts.csv());
  EXPECT_EQ(opts.seed(), 99u);
  EXPECT_EQ(opts.threads(), 3u);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "extra");
}

TEST(Cli, FaultFlagsDefaultOff) {
  const CliOptions opts = parse({});
  EXPECT_EQ(opts.fail_links(), 0);
  EXPECT_EQ(opts.fail_at_ns(), 20'000);
  EXPECT_EQ(opts.recover_at_ns(), -1);
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  EXPECT_TRUE(opts.fault_schedule(fabric).empty());
}

TEST(Cli, ParsesFaultFlagsBothForms) {
  const CliOptions eq =
      parse({"--fail-links=3", "--fail-at-ns=12000", "--recover-at-ns=50000"});
  EXPECT_EQ(eq.fail_links(), 3);
  EXPECT_EQ(eq.fail_at_ns(), 12'000);
  EXPECT_EQ(eq.recover_at_ns(), 50'000);
  EXPECT_TRUE(eq.positional().empty());

  const CliOptions two = parse({"--fail-links", "3", "--fail-at-ns", "12000"});
  EXPECT_EQ(two.fail_links(), 3);
  EXPECT_EQ(two.fail_at_ns(), 12'000);
  EXPECT_TRUE(two.positional().empty());
}

TEST(Cli, FaultScheduleMatchesFlags) {
  const CliOptions opts =
      parse({"--fail-links=2", "--fail-at-ns=15000", "--recover-at-ns=40000"});
  const FatTreeFabric fabric{FatTreeParams(8, 2)};
  const FaultSchedule faults = opts.fault_schedule(fabric);
  ASSERT_EQ(faults.size(), 4u);  // 2 failures + 2 recoveries
  EXPECT_TRUE(faults.events()[0].fail);
  EXPECT_EQ(faults.events()[0].at, 15'000);
  EXPECT_FALSE(faults.events()[3].fail);
  EXPECT_EQ(faults.events()[3].at, 40'000);
}

TEST(Cli, ShardsFlagBothFormsAndDefault) {
  EXPECT_EQ(parse({}).shards(), 1u);
  EXPECT_EQ(parse({"--shards=4"}).shards(), 4u);
  EXPECT_EQ(parse({"--shards", "2"}).shards(), 2u);
}

TEST(Cli, SweepOptionsMirrorTheFlags) {
  const CliOptions opts =
      parse({"--quick", "--threads=3", "--shards=2", "--no-telemetry"});
  const SweepOptions sweep = opts.sweep_options();
  EXPECT_EQ(sweep.threads, 3u);
  EXPECT_EQ(sweep.shards, 2u);
  EXPECT_TRUE(sweep.quick);
  ASSERT_TRUE(sweep.telemetry.has_value());
  EXPECT_FALSE(*sweep.telemetry);

  // Unset flags stay nullopt so the spec's own settings win.
  const SweepOptions defaults = parse({}).sweep_options();
  EXPECT_FALSE(defaults.telemetry.has_value());
}

TEST(Cli, ApplyPropagatesSimOverrides) {
  const CliOptions opts = parse({"--no-telemetry"});
  FigureSpec spec;
  opts.apply(spec);
  EXPECT_FALSE(spec.sim.telemetry);
}

TEST(Cli, QuickModeShrinksAFigureSpec) {
  const CliOptions opts = parse({"--quick", "--seed=5"});
  FigureSpec spec;
  opts.apply(spec);
  EXPECT_EQ(spec.sim.seed, 5u);
  EXPECT_EQ(spec.loads.size(), 3u);
  EXPECT_LT(spec.sim.measure_ns, 80'000);
}

TEST(Cli, NonQuickKeepsTheFullGrid) {
  const CliOptions opts = parse({"--seed=5"});
  FigureSpec spec;
  opts.apply(spec);
  EXPECT_EQ(spec.loads.size(), FigureSpec::kDefaultLoads().size());
  EXPECT_EQ(spec.sim.measure_ns, 80'000);
}

// Malformed input must exit non-zero with a diagnostic, never be silently
// coerced (--seed=abc used to parse as 0, --threads=4x as 4).
using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, NonNumericValueIsRejected) {
  EXPECT_EXIT(parse({"--seed=abc"}), ::testing::ExitedWithCode(2),
              "--seed");
}

TEST(CliDeathTest, TrailingGarbageAfterNumberIsRejected) {
  EXPECT_EXIT(parse({"--threads=4x"}), ::testing::ExitedWithCode(2),
              "--threads");
  EXPECT_EXIT(parse({"--fail-at-ns=12000ns"}), ::testing::ExitedWithCode(2),
              "--fail-at-ns");
}

TEST(CliDeathTest, EmptyAndMissingValuesAreRejected) {
  EXPECT_EXIT(parse({"--seed="}), ::testing::ExitedWithCode(2), "--seed");
  EXPECT_EXIT(parse({"--fail-links"}), ::testing::ExitedWithCode(2),
              "--fail-links");
}

TEST(CliDeathTest, OutOfRangeValueIsRejected) {
  // One past UINT64_MAX.
  EXPECT_EXIT(parse({"--seed=18446744073709551616"}),
              ::testing::ExitedWithCode(2), "--seed");
  // Negative where the flag's type is unsigned.
  EXPECT_EXIT(parse({"--threads=-1"}), ::testing::ExitedWithCode(2),
              "--threads");
}

TEST(CliDeathTest, ZeroParallelismIsRejected) {
  // An explicit --threads=0 must not silently mean "hardware concurrency",
  // and a zero shard count has no meaning at all.
  EXPECT_EXIT(parse({"--threads=0"}), ::testing::ExitedWithCode(2),
              "--threads must be >= 1");
  EXPECT_EXIT(parse({"--shards=0"}), ::testing::ExitedWithCode(2),
              "--shards must be >= 1");
  EXPECT_EXIT(parse({"--shards=-2"}), ::testing::ExitedWithCode(2),
              "--shards");
}

// Values the engine would reject must fail at parse time with exit 2, not
// throw from a sweep worker mid-run, where nothing catches them.
TEST(CliDeathTest, ZeroTraceStrideIsRejected) {
  EXPECT_EXIT(parse({"--trace-stride=0"}), ::testing::ExitedWithCode(2),
              "trace stride must be at least 1");
}

TEST(CliDeathTest, NegativeSampleIntervalIsRejected) {
  EXPECT_EXIT(parse({"--sample-interval-ns=-5"}), ::testing::ExitedWithCode(2),
              "sampler interval cannot be negative");
}

TEST(CliDeathTest, ZeroCcThresholdIsRejected) {
  EXPECT_EXIT(parse({"--cc", "--cc-threshold=0"}),
              ::testing::ExitedWithCode(2),
              "FECN depth threshold must admit at least one packet");
}

TEST(CliDeathTest, ZeroCcTimerIsRejected) {
  EXPECT_EXIT(parse({"--cc", "--cc-timer-ns=0"}), ::testing::ExitedWithCode(2),
              "CCT recovery timer period must be positive");
}

TEST(CliDeathTest, CcValueFlagsAreCheckedWithoutCc) {
  EXPECT_EXIT(parse({"--cc-timer-ns=0"}), ::testing::ExitedWithCode(2),
              "CCT recovery timer period must be positive");
}

TEST(CliDeathTest, NegativeFailLinksIsRejected) {
  EXPECT_EXIT(parse({"--fail-links=-3"}), ::testing::ExitedWithCode(2),
              "--fail-links cannot be negative");
}

// The fault times are checked with or without --fail-links: FaultSchedule
// would otherwise abort on them mid-run.
TEST(CliDeathTest, NegativeFailAtIsRejected) {
  EXPECT_EXIT(parse({"--fail-links=2", "--fail-at-ns=-5"}),
              ::testing::ExitedWithCode(2), "--fail-at-ns cannot be negative");
  EXPECT_EXIT(parse({"--fail-at-ns=-5"}), ::testing::ExitedWithCode(2),
              "--fail-at-ns cannot be negative");
}

TEST(CliDeathTest, ExplicitNegativeRecoverAtIsRejected) {
  // -1 is the "never" default, but only when the flag is absent.
  EXPECT_EXIT(parse({"--fail-links=2", "--recover-at-ns=-1"}),
              ::testing::ExitedWithCode(2),
              "--recover-at-ns cannot be negative");
  EXPECT_EXIT(parse({"--recover-at-ns=-1"}), ::testing::ExitedWithCode(2),
              "--recover-at-ns cannot be negative");
}

TEST(CliDeathTest, RecoveryNotAfterTheFailureIsRejected) {
  EXPECT_EXIT(parse({"--fail-links=2", "--fail-at-ns=5000",
                     "--recover-at-ns=1000"}),
              ::testing::ExitedWithCode(2),
              "--recover-at-ns must be later than --fail-at-ns");
  EXPECT_EXIT(parse({"--fail-at-ns=5000", "--recover-at-ns=5000"}),
              ::testing::ExitedWithCode(2),
              "--recover-at-ns must be later than --fail-at-ns");
  // Against the default --fail-at-ns (20000).
  EXPECT_EXIT(parse({"--recover-at-ns=1000"}), ::testing::ExitedWithCode(2),
              "--recover-at-ns must be later than --fail-at-ns");
}

TEST(CliDeathTest, TenantVlMapWithoutTenantsIsRejected) {
  EXPECT_EXIT(parse({"--vl-map=tenant"}), ::testing::ExitedWithCode(2),
              "the tenant VL map needs tenants");
}

TEST(CliDeathTest, UnknownFlagListsTheKnownOnes) {
  EXPECT_EXIT(parse({"--quik"}), ::testing::ExitedWithCode(2),
              "unknown flag '--quik'");
  // The diagnostic must teach: it lists the flags that do exist.
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2), "--seed=N");
}

TEST(CliDeathTest, SequentialOnlyObservabilityRejectsShards) {
  // Per-event observability has no sharded implementation; combining it
  // with --shards>1 used to silently produce empty traces.  It must exit 2
  // with a diagnostic naming the conflicting flag.
  EXPECT_EXIT(parse({"--shards=2", "--chrome-trace=/tmp/t.json"}),
              ::testing::ExitedWithCode(2), "--chrome-trace is sequential-only");
  EXPECT_EXIT(parse({"--shards=2", "--trace-packets=8"}),
              ::testing::ExitedWithCode(2), "--trace-packets is sequential-only");
  // Flag order must not matter.
  EXPECT_EXIT(parse({"--trace-packets=8", "--shards", "4"}),
              ::testing::ExitedWithCode(2), "sequential-only");
}

TEST(Cli, FlightRecorderAllowedWithShards) {
  // The flight recorder is per-device and every device is owned by exactly
  // one shard, so sharded runs keep valid rings (dump tagged with the
  // owning shard).  The flag must parse cleanly under --shards > 1.
  const CliOptions opts = parse({"--shards=4", "--flight-recorder=64"});
  EXPECT_EQ(opts.shards(), 4u);
  EXPECT_EQ(opts.flight_recorder(), 64u);
}

TEST(Cli, ProfileAndMetricsFlags) {
  EXPECT_FALSE(parse({}).profile());
  EXPECT_FALSE(parse({}).progress());
  EXPECT_TRUE(parse({}).metrics_out().empty());
  EXPECT_EQ(parse({}).metrics_interval_ns(), 10'000);
  const CliOptions opts =
      parse({"--profile", "--progress", "--metrics-out=/tmp/m.jsonl",
             "--metrics-interval-ns=2500"});
  EXPECT_TRUE(opts.profile());
  EXPECT_TRUE(opts.progress());
  EXPECT_EQ(opts.metrics_out(), "/tmp/m.jsonl");
  EXPECT_EQ(opts.metrics_interval_ns(), 2500);
  // Profiling and streaming are shard-safe by design: the combination
  // parses (the sharded driver owns both).
  const CliOptions sharded = parse({"--shards=4", "--profile",
                                    "--metrics-out=/tmp/m.jsonl"});
  EXPECT_EQ(sharded.shards(), 4u);
  EXPECT_TRUE(sharded.profile());
}

TEST(CliDeathTest, MetricsFlagValidation) {
  EXPECT_EXIT(parse({"--metrics-out="}), ::testing::ExitedWithCode(2),
              "--metrics-out needs a file path");
  EXPECT_EXIT(parse({"--metrics-interval-ns=0"}), ::testing::ExitedWithCode(2),
              "--metrics-interval-ns must be >= 1");
  EXPECT_EXIT(parse({"--metrics-interval-ns=-5"}),
              ::testing::ExitedWithCode(2),
              "--metrics-interval-ns must be >= 1");
  EXPECT_EXIT(parse({"--metrics-interval-ns=abc"}),
              ::testing::ExitedWithCode(2), "base-10 integer");
  // An unopenable metrics path is a usage error too, surfaced when the
  // streamer is built rather than silently dropping the stream.
  EXPECT_EXIT(
      parse({"--metrics-out=/nonexistent-dir/m.jsonl"}).make_metrics_streamer(),
      ::testing::ExitedWithCode(2), "--metrics-out");
}

TEST(Cli, SequentialOnlyObservabilityAllowedWithOneShard) {
  const CliOptions opts =
      parse({"--shards=1", "--trace-packets=8", "--flight-recorder=64",
             "--chrome-trace=/tmp/t.json", "--sample-interval-ns=500"});
  EXPECT_EQ(opts.shards(), 1u);
  EXPECT_EQ(opts.trace_packets(), 8u);
}

TEST(Cli, IntervalSamplerAllowedWithShards) {
  // The interval sampler is driver-owned in sharded runs: the combination
  // is supported and must parse cleanly.
  const CliOptions opts = parse({"--shards=4", "--sample-interval-ns=500"});
  EXPECT_EQ(opts.shards(), 4u);
  EXPECT_EQ(opts.sample_interval_ns(), 500);
}

TEST(CliDeathTest, HelpPrintsUsageAndExitsZero) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(Cli, SchemeAndPolicyFlagsBothFormsAndDefault) {
  EXPECT_FALSE(parse({}).scheme().has_value());
  EXPECT_FALSE(parse({}).policy().has_value());
  EXPECT_FALSE(parse({}).vl_map().has_value());
  const CliOptions eq =
      parse({"--scheme=UPDN", "--policy=adaptive", "--vl-map=dest-mod"});
  EXPECT_EQ(eq.scheme(), "UPDN");
  EXPECT_EQ(eq.policy(), "adaptive");
  EXPECT_EQ(eq.vl_map(), "dest-mod");
  const CliOptions two = parse({"--scheme", "MLID", "--policy", "adaptive"});
  EXPECT_EQ(two.scheme(), "MLID");
  EXPECT_EQ(two.policy(), "adaptive");
  // Registry lookup is case-insensitive; the flag keeps the user's casing.
  EXPECT_EQ(parse({"--scheme=mlid"}).scheme(), "mlid");
}

TEST(Cli, ApplyPropagatesSchemeAndPolicy) {
  const CliOptions opts =
      parse({"--scheme=SLID", "--policy=adaptive", "--vl-map=flow-hash"});
  FigureSpec spec;
  opts.apply(spec);
  ASSERT_EQ(spec.schemes.size(), 1u);
  EXPECT_EQ(spec.schemes[0], "SLID");
  EXPECT_EQ(spec.sim.policy.forwarding, "adaptive");
  EXPECT_EQ(spec.sim.policy.vl_map, "flow-hash");
  // Without the flags the spec keeps its own grid and defaults.
  FigureSpec untouched;
  parse({}).apply(untouched);
  EXPECT_EQ(untouched.schemes.size(), 2u);
  EXPECT_EQ(untouched.sim.policy, PolicyConfig{});
}

// Unknown registry names must exit 2 and teach: the diagnostic carries the
// live registry listing, so the user sees exactly what this build offers.
TEST(CliDeathTest, UnknownSchemeExitsWithTheRegistryListing) {
  EXPECT_EXIT(parse({"--scheme=bogus"}), ::testing::ExitedWithCode(2),
              "unknown routing scheme 'bogus'");
  EXPECT_EXIT(parse({"--scheme=bogus"}), ::testing::ExitedWithCode(2),
              "registered: SLID, MLID, UPDN");
}

TEST(CliDeathTest, UnknownPolicyExitsWithTheRegistryListing) {
  EXPECT_EXIT(parse({"--policy=bogus"}), ::testing::ExitedWithCode(2),
              "unknown forwarding policy 'bogus'");
  EXPECT_EXIT(parse({"--policy=bogus"}), ::testing::ExitedWithCode(2),
              "registered: deterministic, adaptive");
}

TEST(CliDeathTest, UnknownVlMapExitsWithTheRegistryListing) {
  EXPECT_EXIT(parse({"--vl-map=bogus"}), ::testing::ExitedWithCode(2),
              "unknown vl map 'bogus'");
  EXPECT_EXIT(parse({"--vl-map=bogus"}), ::testing::ExitedWithCode(2),
              "registered: random, src-mod, dest-mod, flow-hash, tenant");
}

TEST(CliDeathTest, UsageTextEnumeratesTheRegistries) {
  // Every usage error (and --help, which prints the same text to stdout)
  // ends with the three live registry listings.
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "registered schemes: ");
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "forwarding policies: ");
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "vl maps: ");
}

}  // namespace
}  // namespace mlid
