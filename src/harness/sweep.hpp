// Experiment harness: run the paper's (scheme x VL x offered-load) sweeps
// and render latency-vs-accepted-traffic series like the paper's figures.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace mlid {

/// One full figure: a network, a traffic pattern, and the series grid.
struct FigureSpec {
  std::string title;           ///< e.g. "Figure 12: uniform, 4-port 3-tree"
  int m = 4;
  int n = 3;
  TrafficConfig traffic;
  SimConfig sim;                            ///< VL count is overridden per series
  std::vector<int> vl_counts = {1, 2, 4};   ///< paper: VL 1 / VL 2 / VL 4
  /// SchemeRegistry names (routing/registry.hpp); any registered scheme
  /// can join the grid.
  std::vector<std::string> schemes = {"SLID", "MLID"};
  std::vector<double> loads = kDefaultLoads();
  /// Forwarding/VL-map policy arms.  Empty (the default) runs the single
  /// arm `sim.policy`; listing arms multiplies the grid, every arm facing
  /// the identical simulation and traffic streams (point seeds are
  /// policy-independent), so arms compare policies and nothing else.
  std::vector<PolicyConfig> policies;

  static std::vector<double> kDefaultLoads() {
    return {0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.65, 0.80, 0.95};
  }
};

/// Reproducibility + host-performance record attached to every sweep
/// sample: exactly which seeds produced it and what it cost to compute.
struct PointManifest {
  std::uint64_t sim_seed = 0;
  std::uint64_t traffic_seed = 0;
  double wall_seconds = 0.0;          ///< host time for this one simulation
  /// Events the engine actually dispatched; scheduled additionally counts
  /// work still queued at cutoff.  events_per_sec = processed / wall.
  /// `processed` is the FLEET total -- every shard queue plus the control
  /// queue -- and `wall_seconds` is
  /// the driver's wall time for the whole run, so events_per_sec is
  /// fleet-processed events over driver wall time and directly comparable
  /// across shard counts (pinned by
  /// tests/harness/sweep_test.cpp).
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  double events_per_sec = 0.0;
  /// Actual parallelism that computed this point: resolved sweep worker
  /// count (never 0 -- the 0 in SweepOptions means "pick for me") and the
  /// engine shard count.
  std::uint32_t threads = 1;
  std::uint32_t shards = 1;
  /// Hot memory per physical port at this point: engine state
  /// (Simulation::memory_footprint, summed across shards) plus the compiled
  /// routing tables, divided by the fabric's total port count.  This is the
  /// scale metric docs/simulator.md budgets and CI regresses on.
  double bytes_per_endport = 0.0;
  /// Forwarding/VL-map policy pair that ran this point (BENCH schema v6).
  std::string policy = "deterministic";
  std::string vl_map = "random";
  /// Scenario this point ran under (BENCH schema v7): a ScenarioRegistry
  /// name for points produced by run_scenarios, "none" for plain sweeps.
  std::string scenario = "none";
  EventQueueStats queue;              ///< pending-event structure internals
  /// Engine self-profile for this point (BENCH schema v8; enabled == false
  /// with all-zero fields unless SimConfig::profile ran the point).  Every
  /// manifest carries the block so BENCH consumers can rely on its shape.
  ProfileSummary profile;
};

/// One sweep sample: the series key plus the simulation outcome.
struct SweepPoint {
  std::string scheme = "SLID";  ///< SchemeRegistry name
  int vls = 1;
  double load = 0.0;
  PolicyConfig policy;          ///< the arm this point ran under
  SimResult result;
  PointManifest manifest;
};

/// Per-point seed derivation: a SplitMix64 hash chain over the base seed
/// and the point's own coordinates (scheme, VL count, load bits).  Unlike
/// the old `base * K + job_index` scheme it does not depend on the grid
/// shape -- adding a load to the sweep leaves every other point's seed (and
/// therefore its results) unchanged -- and a base seed of 0 still yields
/// decorrelated streams instead of collapsing to the bare index.
/// The scheme's hash word is its stable SchemeRegistry seed key (SLID = 0,
/// MLID = 1, matching the retired enum), never the policy arm: policy arms
/// at one grid point deliberately share streams.
[[nodiscard]] std::uint64_t sweep_point_seed(std::uint64_t base,
                                             std::string_view scheme, int vls,
                                             double load);

/// Traffic-stream seed for a grid point.  Deliberately *scheme-independent*
/// (and domain-separated from the simulation streams): both routing schemes
/// at the same (vls, load) point face the bit-identical workload instance
/// -- same hot destinations, same arrival draws -- so their comparison
/// measures routing, not traffic luck.
[[nodiscard]] std::uint64_t sweep_traffic_seed(std::uint64_t base, int vls,
                                               double load);

/// Execution knobs for run_sweep, separate from the figure definition so
/// call sites never grow positional booleans.  The optional fields inherit
/// from FigureSpec::sim when unset -- a default-constructed SweepOptions
/// changes nothing about the spec.
struct SweepOptions {
  unsigned threads = 0;  ///< worker threads (0 = hardware concurrency)
  /// Engine shards per point (parallel/sharded.hpp).  Results are
  /// byte-identical for any value; more shards only change wall-clock time.
  /// Must be >= 1.
  unsigned shards = 1;
  /// CI-sized run: shrink the measurement window and load grid to the
  /// smoke values (warmup 5 us, measure 20 us, loads {0.10, 0.40, 0.80}).
  bool quick = false;
  std::optional<bool> telemetry;  ///< override SimConfig::telemetry
  std::optional<CcConfig> cc;  ///< override SimConfig::cc (congestion control)
  /// Override SimConfig::sample_interval_ns: every point of the sweep then
  /// carries an interval-sampler timeline in its result.
  std::optional<SimTime> sample_interval_ns;
  /// Force SimConfig::profile on for every point: each manifest then
  /// carries a live ProfileSummary (results stay byte-identical -- the
  /// profiler is passive).
  bool profile = false;
  /// Stderr heartbeat: one "progress:" line per completed point (points
  /// done / total, elapsed, ETA).  Never written to stdout, so BENCH/json
  /// pipelines stay clean.
  bool progress = false;
  /// JSONL metrics stream (non-owning; may be null).  The pool emits one
  /// "point" line per completed point (the live series for long sweeps);
  /// the streamer serializes concurrent writers.  Window/summary lines are
  /// a single-run concern -- pass the streamer to OpenLoopOptions::metrics
  /// for those.
  MetricsStreamer* metrics = nullptr;
};

/// Run the whole grid.  Independent simulations are distributed over
/// `options.threads` worker threads; results come back in deterministic
/// grid order regardless of scheduling.
std::vector<SweepPoint> run_sweep(const FigureSpec& spec,
                                  const SweepOptions& options = {});

/// Saturation throughput of a finished sweep: the highest accepted traffic
/// any load point of the given series reached (across every policy arm, if
/// the sweep ran several).
double saturation_throughput(const std::vector<SweepPoint>& points,
                             std::string_view scheme, int vls);

/// Bisection search for the saturation point: the highest offered load at
/// which accepted traffic still tracks the offered rate within `slack`
/// (relative).  Runs O(log(1 / tolerance)) simulations.
double find_saturation_load(const Subnet& subnet, const SimConfig& cfg,
                            const TrafficConfig& traffic, double slack = 0.05,
                            double tolerance = 0.02);

/// Mean and spread of one metric across independent seeded replications.
struct Replication {
  OnlineStats accepted;     ///< bytes/ns/node
  OnlineStats avg_latency;  ///< ns
  SimResult first;          ///< full result of the first replication
  int runs = 0;
};

/// Run `runs` simulations of one configuration with decorrelated seeds and
/// accumulate the headline metrics -- the statistical backing for the
/// EXPERIMENTS.md claims.
Replication replicate(const Subnet& subnet, const SimConfig& cfg,
                      const TrafficConfig& traffic, double offered_load,
                      int runs);

/// Aligned table with one row per sample (offered load, accepted traffic,
/// average latency, ...), grouped per series like the paper's plots.
std::string render_figure_table(const FigureSpec& spec,
                                const std::vector<SweepPoint>& points);

/// Machine-readable CSV of the same data.
std::string render_figure_csv(const FigureSpec& spec,
                              const std::vector<SweepPoint>& points);

/// Short per-series summary: saturation throughput + low-load latency, and
/// the MLID/SLID throughput ratios the paper's observations quote.
std::string render_figure_summary(const FigureSpec& spec,
                                  const std::vector<SweepPoint>& points);

}  // namespace mlid
