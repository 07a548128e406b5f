// Minimal CLI flag handling shared by the bench / example executables.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/config.hpp"
#include "sim/fault_schedule.hpp"

namespace mlid {

struct SweepOptions;
class MetricsStreamer;

/// Parses the tiny flag language the harness binaries accept:
///   --help             print usage and exit 0
///   --quick            shrink windows & load grid (CI-friendly)
///   --seed=N           master seed
///   --csv              also print the CSV block
///   --json             also print a JSON result blob
///   --out=PATH         also write the CSV (and JSON if --json) to files
///                      PATH.csv / PATH.json
///   --threads=N        worker threads for the sweep (N >= 1; omitting the
///                      flag picks the hardware concurrency)
///   --shards=N         engine shards per simulation (N >= 1; results are
///                      byte-identical for any N)
///   --scheme=NAME      routing scheme by SchemeRegistry name (any
///                      registered scheme; validated at parse time)
///   --scenario=NAME    production scenario by ScenarioRegistry name
///                      (validated at parse time; unknown names exit 2
///                      with the registry listing)
///   --list-scenarios   print every registered scenario and exit 0
///   --policy=NAME      up-phase forwarding policy by registry name
///   --vl-map=NAME      HCA-side dynamic VL assignment by registry name
///   --no-telemetry     skip the extended per-link/histogram telemetry
///   --fail-links=N     fail N random inter-switch uplinks mid-run
///   --fail-at-ns=T     when the failures hit (default 20000)
///   --recover-at-ns=T  bring the failed links back at T (default: never)
///   --cc               enable IBA congestion control (FECN/BECN + CCT)
///   --cc-threshold=N   FECN marking backlog threshold, packets
///   --cc-timer-ns=T    CCT recovery-timer period
///   --sample-interval-ns=T  interval-sampler cadence (0 = off)
///   --chrome-trace=PATH     write a chrome://tracing / Perfetto JSON trace
///   --trace-packets=N  record up to N per-packet event timelines
///   --trace-stride=K   trace every K-th generated packet
///   --flight-recorder=K     keep the last K engine events per device
///                      (works under --shards too: per-shard rings, dump
///                      tagged with the owning shard)
///   --profile          engine self-profiling (ProfileSummary in results /
///                      manifests; passive -- results are byte-identical)
///   --progress         stderr heartbeat: one line per completed sweep
///                      point (done/total, elapsed, ETA); never on stdout
///   --metrics-out=FILE stream run metrics as JSONL to FILE (obs/stream.hpp)
///   --metrics-interval-ns=T  metrics window cadence (default 10000; must
///                      be >= 1 -- 0 or negative exits 2)
/// The fault, CC and tracing value flags also accept the two-token form
/// (`--fail-links 4`, `--cc-threshold 3`).
///
/// Parsing is strict: numeric values must consume the whole token
/// (`--seed=abc` and `--threads=4x` are fatal, not silently 0 / 4), an
/// unrecognized `--flag` exits 2 with a diagnostic listing the known flags
/// instead of being swallowed as a positional argument, and the parsed
/// values must pass SimConfig/CcConfig validation (`--trace-stride=0`,
/// `--cc-timer-ns=0`, `--vl-map=tenant` without tenants, a negative
/// `--fail-links` all exit 2 here rather than abort mid-run).
class CliOptions {
 public:
  CliOptions(int argc, char** argv);

  [[nodiscard]] bool quick() const noexcept { return quick_; }
  [[nodiscard]] bool csv() const noexcept { return csv_; }
  [[nodiscard]] bool json() const noexcept { return json_; }
  [[nodiscard]] const std::string& out_path() const noexcept { return out_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  [[nodiscard]] bool telemetry() const noexcept { return telemetry_; }
  /// Scheme name from --scheme; nullopt = keep the binary's scheme grid.
  /// Always a registered name (unknown values exit 2 during parsing).
  [[nodiscard]] const std::optional<std::string>& scheme() const noexcept {
    return scheme_;
  }
  /// Scenario name from --scenario; nullopt = the binary's own default
  /// (bench/ablation_scenarios runs every registered scenario).  Always a
  /// registered name (unknown values exit 2 during parsing).
  [[nodiscard]] const std::optional<std::string>& scenario() const noexcept {
    return scenario_;
  }
  /// Forwarding-policy name from --policy; nullopt = spec default.
  [[nodiscard]] const std::optional<std::string>& policy() const noexcept {
    return policy_;
  }
  /// VL-map name from --vl-map; nullopt = spec default.
  [[nodiscard]] const std::optional<std::string>& vl_map() const noexcept {
    return vl_map_;
  }
  /// Congestion-control config from --cc / --cc-threshold / --cc-timer-ns;
  /// nullopt without --cc (the value flags tune the config --cc enables).
  [[nodiscard]] std::optional<CcConfig> cc() const noexcept {
    if (!cc_) return std::nullopt;
    return cc_values();
  }
  /// Sampler cadence from --sample-interval-ns; nullopt = keep the
  /// binary's default (most default to off, the ablation benches to 1 us).
  [[nodiscard]] std::optional<std::int64_t> sample_interval_ns()
      const noexcept {
    return sample_interval_ns_;
  }
  /// Output path from --chrome-trace (empty = no trace export).
  [[nodiscard]] const std::string& chrome_trace() const noexcept {
    return chrome_trace_;
  }
  [[nodiscard]] std::optional<std::uint32_t> trace_packets() const noexcept {
    return trace_packets_;
  }
  [[nodiscard]] std::optional<std::uint32_t> trace_stride() const noexcept {
    return trace_stride_;
  }
  [[nodiscard]] std::optional<std::uint32_t> flight_recorder() const noexcept {
    return flight_recorder_;
  }
  [[nodiscard]] bool profile() const noexcept { return profile_; }
  [[nodiscard]] bool progress() const noexcept { return progress_; }
  /// Output path from --metrics-out (empty = no metrics stream).
  [[nodiscard]] const std::string& metrics_out() const noexcept {
    return metrics_out_;
  }
  [[nodiscard]] std::int64_t metrics_interval_ns() const noexcept {
    return metrics_interval_ns_;
  }
  /// The JSONL metrics streamer --metrics-out / --metrics-interval-ns
  /// describe, or nullptr without --metrics-out.  Wire the returned object
  /// into SweepOptions::metrics (sweeps) or OpenLoopOptions::metrics
  /// (single runs); it flushes per line, so it is live from the first
  /// window.  An unwritable path is a usage error (exit 2), matching the
  /// parse-time strictness of the other file flags.
  [[nodiscard]] std::unique_ptr<MetricsStreamer> make_metrics_streamer() const;
  [[nodiscard]] int fail_links() const noexcept { return fail_links_; }
  [[nodiscard]] std::int64_t fail_at_ns() const noexcept { return fail_at_ns_; }
  [[nodiscard]] std::int64_t recover_at_ns() const noexcept {
    return recover_at_ns_.value_or(-1);
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The fault schedule the --fail-links / --fail-at-ns / --recover-at-ns
  /// flags describe for this fabric (empty without --fail-links), so any
  /// bench can opt into mid-run faults without bespoke wiring.
  [[nodiscard]] FaultSchedule fault_schedule(const FatTreeFabric& fabric) const;

  /// The run_sweep execution knobs these flags describe (threads, quick,
  /// --no-telemetry, --cc, --sample-interval-ns, --profile).
  [[nodiscard]] SweepOptions sweep_options() const;

  /// Apply the flags that change the *figure definition* to a spec: seeds
  /// always, plus quick-mode shrinking and the sim-config overrides
  /// (--no-telemetry, --cc, ...) for binaries that run simulations
  /// directly rather than through run_sweep.
  template <typename FigureSpecT>
  void apply(FigureSpecT& spec) const {
    spec.sim.seed = seed_;
    spec.traffic.seed = seed_ ^ 0x5EEDu;
    if constexpr (requires { spec.schemes; }) {
      if (scheme_) spec.schemes = {*scheme_};
    }
    if (policy_) spec.sim.policy.forwarding = *policy_;
    if (vl_map_) spec.sim.policy.vl_map = *vl_map_;
    if (!telemetry_) spec.sim.telemetry = false;
    if (const auto cc_cfg = cc()) spec.sim.cc = *cc_cfg;
    if (sample_interval_ns_) spec.sim.sample_interval_ns = *sample_interval_ns_;
    if (trace_packets_) spec.sim.trace_packets = *trace_packets_;
    if (trace_stride_) spec.sim.trace_stride = *trace_stride_;
    if (flight_recorder_) spec.sim.flight_recorder_depth = *flight_recorder_;
    if (profile_) spec.sim.profile = true;
    // The chrome-trace exporter needs the control-plane record to draw its
    // fault / SM / CC tracks; asking for the file turns the recording on.
    if (!chrome_trace_.empty()) spec.sim.trace_control = true;
    if (quick_) {
      spec.sim.warmup_ns = 5'000;
      spec.sim.measure_ns = 20'000;
      spec.loads = {0.10, 0.40, 0.80};
    }
  }

 private:
  /// The CC config the value flags describe, enabled (cc() gates it on
  /// --cc; parsing validates it either way).
  [[nodiscard]] CcConfig cc_values() const noexcept {
    CcConfig config;
    config.enabled = true;
    if (cc_threshold_) config.fecn_threshold_pkts = *cc_threshold_;
    if (cc_timer_ns_) config.timer_ns = *cc_timer_ns_;
    return config;
  }

  bool quick_ = false;
  bool csv_ = false;
  bool json_ = false;
  std::string out_;
  std::uint64_t seed_ = 1;
  unsigned threads_ = 0;
  unsigned shards_ = 1;
  std::optional<std::string> scheme_;
  std::optional<std::string> scenario_;
  std::optional<std::string> policy_;
  std::optional<std::string> vl_map_;
  bool telemetry_ = true;
  bool cc_ = false;
  std::optional<std::uint32_t> cc_threshold_;
  std::optional<std::int64_t> cc_timer_ns_;
  std::optional<std::int64_t> sample_interval_ns_;
  std::string chrome_trace_;
  std::optional<std::uint32_t> trace_packets_;
  std::optional<std::uint32_t> trace_stride_;
  std::optional<std::uint32_t> flight_recorder_;
  bool profile_ = false;
  bool progress_ = false;
  std::string metrics_out_;
  std::int64_t metrics_interval_ns_ = 10'000;
  int fail_links_ = 0;
  std::int64_t fail_at_ns_ = 20'000;
  std::optional<std::int64_t> recover_at_ns_;  ///< unset = never
  std::vector<std::string> positional_;
};

}  // namespace mlid
