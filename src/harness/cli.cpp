#include "harness/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "harness/sweep.hpp"
#include "obs/stream.hpp"
#include "routing/adaptive.hpp"
#include "routing/registry.hpp"
#include "scenario/scenario.hpp"

namespace mlid {
namespace {

constexpr std::string_view kUsage =
    "flags:\n"
    "  --help             print this message and exit\n"
    "  --quick            shrink windows & load grid (CI-friendly)\n"
    "  --seed=N           master seed\n"
    "  --csv              also print the CSV block\n"
    "  --json             also print a JSON result blob\n"
    "  --out=PATH         also write CSV (and JSON if --json) to PATH.csv /\n"
    "                     PATH.json\n"
    "  --threads=N        worker threads for the sweep (N >= 1; omit the\n"
    "                     flag to use the hardware concurrency)\n"
    "  --shards=N         engine shards per simulation (N >= 1; results are\n"
    "                     byte-identical for any N, only wall time changes)\n"
    "  --scheme=NAME      routing scheme, by registry name (see the\n"
    "                     'registered schemes' line below)\n"
    "  --scenario=NAME    production scenario, by registry name (see the\n"
    "                     'registered scenarios' line below)\n"
    "  --list-scenarios   print every registered scenario and exit\n"
    "  --policy=NAME      up-phase forwarding policy (see the 'forwarding\n"
    "                     policies' line below)\n"
    "  --vl-map=NAME      HCA-side dynamic VL assignment (see the 'vl maps'\n"
    "                     line below)\n"
    "  --no-telemetry     skip the extended per-link/histogram telemetry\n"
    "  --fail-links=N     fail N random inter-switch uplinks mid-run\n"
    "  --fail-at-ns=T     when the failures hit (default 20000)\n"
    "  --recover-at-ns=T  bring the failed links back at T (default: never)\n"
    "  --cc               enable IBA congestion control (FECN/BECN + CCT)\n"
    "  --cc-threshold=N   FECN marking backlog threshold, packets\n"
    "  --cc-timer-ns=T    CCT recovery-timer period\n"
    "  --sample-interval-ns=T  interval-sampler cadence (0 = off)\n"
    "  --chrome-trace=PATH     write a chrome://tracing / Perfetto JSON "
    "trace\n"
    "  --trace-packets=N  record up to N per-packet event timelines\n"
    "  --trace-stride=K   trace every K-th generated packet\n"
    "  --flight-recorder=K     keep the last K engine events per device\n"
    "                     (works under --shards: per-shard rings, dump\n"
    "                     tagged with the owning shard)\n"
    "  --profile          engine self-profiling (phase breakdown in results\n"
    "                     and manifests; passive, results unchanged)\n"
    "  --progress         stderr heartbeat per completed sweep point\n"
    "  --metrics-out=FILE stream run metrics as JSONL to FILE\n"
    "  --metrics-interval-ns=T  metrics window cadence (default 10000,\n"
    "                     must be >= 1)\n"
    "The fault, CC and tracing value flags also accept the two-token form\n"
    "(`--fail-links 4`, `--cc-threshold 3`).\n";

// Full usage text: the static flag table plus the live registry contents,
// so --help (and every usage error) enumerates exactly what this build can
// run -- including schemes/policies test binaries register themselves.
std::string usage_text() {
  std::string text(kUsage);
  text += "registered schemes: " + scheme_listing() + "\n";
  text += "registered scenarios: " + scenario_listing() + "\n";
  text += "forwarding policies: " + forwarding_policy_listing() + "\n";
  text += "vl maps: " + vl_map_listing() + "\n";
  return text;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(),
               usage_text().c_str());
  std::exit(2);
}

// Parses the *entire* token as a base-10 integer; anything else (empty,
// trailing junk like `--threads=4x`, out of range) is a fatal usage error.
// The old strtol-with-null-endptr parsing accepted those silently -- e.g.
// `--seed=abc` became seed 0 -- which is exactly the bug class this guards.
template <typename Int>
Int parse_int(std::string_view flag, std::string_view text) {
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    usage_error("invalid value '" + std::string(text) + "' for " +
                std::string(flag) + " (expected a base-10 integer)");
  }
  return value;
}

// Reads the value of a flag that accepts both `--flag=V` and `--flag V`.
// Advances `i` past the consumed value token in the two-token form.
bool flag_value(int argc, char** argv, int& i, std::string_view name,
                std::string_view& value) {
  const std::string_view arg = argv[i];
  if (arg.rfind(name, 0) == 0 && arg.size() > name.size() &&
      arg[name.size()] == '=') {
    value = arg.substr(name.size() + 1);
    return true;
  }
  if (arg == name) {
    if (i + 1 >= argc) {
      usage_error("flag " + std::string(name) + " needs a value");
    }
    value = argv[++i];
    return true;
  }
  return false;
}

}  // namespace

CliOptions::CliOptions(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == "--help") {
      std::fputs(usage_text().c_str(), stdout);
      std::exit(0);
    } else if (arg == "--quick") {
      quick_ = true;
    } else if (arg == "--csv") {
      csv_ = true;
    } else if (arg == "--json") {
      json_ = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_ = std::string(arg.substr(6));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed_ = parse_int<std::uint64_t>("--seed", arg.substr(7));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads_ = parse_int<unsigned>("--threads", arg.substr(10));
      // from_chars already rejects negatives for unsigned; 0 would silently
      // mean "hardware concurrency", which an explicit flag must not.
      if (threads_ == 0) {
        usage_error(
            "--threads must be >= 1 (omit the flag for hardware concurrency)");
      }
    } else if (flag_value(argc, argv, i, "--shards", value)) {
      shards_ = parse_int<unsigned>("--shards", value);
      if (shards_ == 0) usage_error("--shards must be >= 1");
    } else if (arg == "--no-telemetry") {
      telemetry_ = false;
    } else if (flag_value(argc, argv, i, "--scheme", value)) {
      // Validate at parse time so a typo dies here with the registry
      // listing, not deep inside Subnet construction.
      if (!SchemeRegistry::instance().contains(value)) {
        usage_error("unknown routing scheme '" + std::string(value) +
                    "' for --scheme (registered: " + scheme_listing() + ")");
      }
      scheme_ = std::string(value);
    } else if (arg == "--list-scenarios") {
      for (const std::string& name : scenario_names()) {
        const auto scenario = make_scenario(name);
        std::printf("%s - %s\n", name.c_str(),
                    std::string(scenario->description()).c_str());
      }
      std::exit(0);
    } else if (flag_value(argc, argv, i, "--scenario", value)) {
      if (!ScenarioRegistry::instance().contains(value)) {
        usage_error("unknown scenario '" + std::string(value) +
                    "' for --scenario (registered: " + scenario_listing() +
                    ")");
      }
      scenario_ = std::string(value);
    } else if (flag_value(argc, argv, i, "--policy", value)) {
      if (!ForwardingPolicyRegistry::instance().contains(value)) {
        usage_error("unknown forwarding policy '" + std::string(value) +
                    "' for --policy (registered: " +
                    forwarding_policy_listing() + ")");
      }
      policy_ = std::string(value);
    } else if (flag_value(argc, argv, i, "--vl-map", value)) {
      if (!VlMapRegistry::instance().contains(value)) {
        usage_error("unknown vl map '" + std::string(value) +
                    "' for --vl-map (registered: " + vl_map_listing() + ")");
      }
      vl_map_ = std::string(value);
    } else if (arg == "--cc") {
      cc_ = true;
    } else if (flag_value(argc, argv, i, "--cc-threshold", value)) {
      cc_threshold_ = parse_int<std::uint32_t>("--cc-threshold", value);
    } else if (flag_value(argc, argv, i, "--cc-timer-ns", value)) {
      cc_timer_ns_ = parse_int<std::int64_t>("--cc-timer-ns", value);
    } else if (flag_value(argc, argv, i, "--sample-interval-ns", value)) {
      sample_interval_ns_ =
          parse_int<std::int64_t>("--sample-interval-ns", value);
    } else if (flag_value(argc, argv, i, "--chrome-trace", value)) {
      if (value.empty()) usage_error("--chrome-trace needs a file path");
      chrome_trace_ = std::string(value);
    } else if (flag_value(argc, argv, i, "--trace-packets", value)) {
      trace_packets_ = parse_int<std::uint32_t>("--trace-packets", value);
    } else if (flag_value(argc, argv, i, "--trace-stride", value)) {
      trace_stride_ = parse_int<std::uint32_t>("--trace-stride", value);
    } else if (flag_value(argc, argv, i, "--flight-recorder", value)) {
      flight_recorder_ = parse_int<std::uint32_t>("--flight-recorder", value);
    } else if (arg == "--profile") {
      profile_ = true;
    } else if (arg == "--progress") {
      progress_ = true;
    } else if (flag_value(argc, argv, i, "--metrics-out", value)) {
      if (value.empty()) usage_error("--metrics-out needs a file path");
      metrics_out_ = std::string(value);
    } else if (flag_value(argc, argv, i, "--metrics-interval-ns", value)) {
      metrics_interval_ns_ =
          parse_int<std::int64_t>("--metrics-interval-ns", value);
      if (metrics_interval_ns_ < 1) {
        usage_error("--metrics-interval-ns must be >= 1");
      }
    } else if (flag_value(argc, argv, i, "--fail-links", value)) {
      fail_links_ = parse_int<int>("--fail-links", value);
    } else if (flag_value(argc, argv, i, "--fail-at-ns", value)) {
      fail_at_ns_ = parse_int<std::int64_t>("--fail-at-ns", value);
    } else if (flag_value(argc, argv, i, "--recover-at-ns", value)) {
      recover_at_ns_ = parse_int<std::int64_t>("--recover-at-ns", value);
    } else if (arg.rfind("--", 0) == 0) {
      // A typo like `--quik` must not silently become a positional.
      usage_error("unknown flag '" + std::string(arg) + "'");
    } else {
      positional_.emplace_back(arg);
    }
  }
  if (shards_ > 1) {
    // Per-event observability that needs a single global event order needs
    // a single shard: several shards dispatch events concurrently across
    // their queues, so these flags would silently produce empty or
    // interleaved output.  Fail loudly instead.  The interval sampler
    // (--sample-interval-ns) is fine: the driver owns the timeline for any
    // shard count.  --flight-recorder is fine too:
    // every device is owned by exactly one shard, so the per-device rings
    // record the same events; the dump is tagged with the owning shard.
    if (!chrome_trace_.empty()) {
      usage_error(
          "--chrome-trace is sequential-only; drop --shards (or set "
          "--shards=1) to export a trace");
    }
    if (trace_packets_ > 0) {
      usage_error(
          "--trace-packets is sequential-only; drop --shards (or set "
          "--shards=1) to record packet timelines");
    }
  }
  if (fail_links_ < 0) usage_error("--fail-links cannot be negative");
  // Check the parsed values the way the engine will, so a bad one exits 2
  // here instead of throwing from a sweep worker mid-run -- CC values even
  // without --cc, fault times even without --fail-links.
  if (fail_at_ns_ < 0) usage_error("--fail-at-ns cannot be negative");
  if (recover_at_ns_ && *recover_at_ns_ <= fail_at_ns_) {
    usage_error(*recover_at_ns_ < 0
                    ? "--recover-at-ns cannot be negative"
                    : "--recover-at-ns must be later than --fail-at-ns");
  }
  FigureSpec probe;
  apply(probe);
  probe.sim.cc = cc_values();
  try {
    probe.sim.validate();
  } catch (const ContractViolation& e) {
    usage_error(e.what());
  }
}

SweepOptions CliOptions::sweep_options() const {
  SweepOptions options;
  options.threads = threads_;
  options.shards = shards_;
  options.quick = quick_;
  if (!telemetry_) options.telemetry = false;
  options.cc = cc();
  options.sample_interval_ns = sample_interval_ns_;
  options.profile = profile_;
  options.progress = progress_;
  return options;
}

std::unique_ptr<MetricsStreamer> CliOptions::make_metrics_streamer() const {
  if (metrics_out_.empty()) return nullptr;
  try {
    return std::make_unique<MetricsStreamer>(metrics_out_,
                                             metrics_interval_ns_);
  } catch (const std::exception& e) {
    usage_error(std::string("--metrics-out: ") + e.what());
  }
}

FaultSchedule CliOptions::fault_schedule(const FatTreeFabric& fabric) const {
  if (fail_links_ <= 0) return FaultSchedule{};
  return FaultSchedule::random_uplink_failures(
      fabric, fail_links_, fail_at_ns_, seed_ ^ 0xFA11u, recover_at_ns());
}

}  // namespace mlid
