// Engine self-profiling: counters-only wall-time breakdown of *the
// simulator itself* (not the simulated fabric).
//
// Every other observability surface in this repo -- histograms, timelines,
// packet traces, the flight recorder -- watches the modeled InfiniBand
// fabric.  The phase profiler instead answers "where does the run's wall
// time go": event processing vs conservative-sync barrier wait vs mailbox
// drain vs sequential control-plane steps, per shard, plus window/lookahead
// statistics, cross-shard handoff volume, event-queue op counters and shard
// load-imbalance factors.  Every run goes through the same window loop
// (sim/driver.hpp), so a one-shard run fills the same taxonomy and
// downstream consumers (BENCH manifests, the JSONL metrics stream, the
// Chrome-trace profiler track) read one shape for any shard count.
//
// Determinism contract (same as Timeline/flight recorder, sim/timeline.hpp):
// the profiler reads host clocks and existing counters only.  It never
// schedules events, draws random numbers, or changes window boundaries, so
// simulation results are byte-identical with profiling on or off for any
// shard/thread count (tests/obs/profile_parity_test.cpp).  The wall-time
// fields themselves are host-dependent; anything that byte-compares results
// across runs must scrub the profile block first (SimResult keeps it in a
// dedicated field for exactly that reason).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mlid {

/// Wall-time phase breakdown for one shard of the fleet.  All durations are
/// host nanoseconds.
struct ShardPhaseProfile {
  /// Wall time spent draining this shard's event queue (dispatching model
  /// events) inside windows.
  std::uint64_t processing_ns = 0;
  /// Wall time this shard sat idle inside parallel windows while other
  /// shards were still draining: window wall time minus own processing,
  /// summed over windows.  On one shard only the loop's own bookkeeping.
  std::uint64_t barrier_wait_ns = 0;
  /// Events this shard's queue dispatched over the whole run.
  std::uint64_t events_processed = 0;
  /// Cross-shard messages this shard emitted into its outbox (mailbox
  /// handoffs).  Zero on one shard.
  std::uint64_t handoffs_out = 0;

  friend bool operator==(const ShardPhaseProfile&,
                         const ShardPhaseProfile&) = default;
};

/// Whole-run self-profile, attached to SimResult (and from there to
/// PointManifest / BENCH json, schema mlid-bench-v8) when
/// SimConfig::profile is set.  Default-constructed (enabled == false, all
/// zeros) otherwise, so byte-comparing scrubbed results stays trivial:
/// assign ProfileSummary{} and the JSON matches an unprofiled run.
struct ProfileSummary {
  bool enabled = false;

  std::uint32_t shards = 0;   ///< fleet size
  std::uint32_t threads = 0;  ///< worker threads that drove the fleet

  // --- conservative-sync window statistics --------------------------------
  std::uint64_t windows = 0;        ///< parallel windows executed
  std::uint64_t control_steps = 0;  ///< zero-lookahead sequential steps
  std::uint64_t handoff_messages = 0;  ///< cross-shard mailbox messages
  SimTime window_ns_min = 0;           ///< narrowest window (simulated ns)
  SimTime window_ns_max = 0;           ///< widest window (simulated ns)
  double window_ns_mean = 0.0;         ///< mean window width (simulated ns)

  // --- wall-time phase totals (host ns, summed over shards) ---------------
  std::uint64_t total_wall_ns = 0;   ///< whole run loop, driver wall time
  std::uint64_t processing_ns = 0;   ///< sum of per-shard event processing
  std::uint64_t barrier_wait_ns = 0; ///< sum of per-shard barrier idle
  std::uint64_t mailbox_ns = 0;      ///< driver-side mailbox drains
  std::uint64_t control_ns = 0;      ///< driver-side control-plane steps

  // --- shard load imbalance over windows ----------------------------------
  // Per window, the imbalance factor is (busiest shard's events) / (mean
  // events per shard); 1.0 is a perfectly balanced window.  Windows where
  // no shard processed anything are skipped.
  double max_imbalance = 0.0;
  double mean_imbalance = 0.0;

  // --- event-queue op counters (summed over shard + control queues) -------
  std::uint64_t queue_pushes = 0;          ///< lifetime schedules
  std::uint64_t queue_pops = 0;            ///< lifetime dispatches
  std::uint64_t queue_overflow_pushes = 0; ///< ladder respills past horizon
  std::uint64_t queue_side_pushes = 0;     ///< pushes into a draining epoch

  /// One entry per shard, indexed by shard id.  Sequential runs carry a
  /// single entry.
  std::vector<ShardPhaseProfile> shard_phases;

  /// Fraction of the fleet's in-window wall time spent waiting at barriers:
  /// barrier / (processing + barrier).  The headline "where does the shard
  /// speedup go" number; 0 when nothing was measured.
  [[nodiscard]] double barrier_wait_fraction() const noexcept {
    const double busy = static_cast<double>(processing_ns) +
                        static_cast<double>(barrier_wait_ns);
    return busy > 0.0 ? static_cast<double>(barrier_wait_ns) / busy : 0.0;
  }

  friend bool operator==(const ProfileSummary&,
                         const ProfileSummary&) = default;
};

}  // namespace mlid
