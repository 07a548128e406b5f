// The simulation driver: the one run loop every simulation goes through.
//
// A run is a span of engine shards (sim/engine.hpp): exactly one for
// Simulation::run / run_to_completion, several for a partitioned run
// (parallel/sharded.hpp).  The driver advances them in conservative-sync
// windows bounded by the link lookahead: every event that crosses a shard
// boundary takes at least `lookahead` of simulated time (the wire flying
// time; the BECN echo delay when CC is on), so events strictly before
// min(shard horizons) + lookahead dispatch without any shard observing
// another mid-window.  Cross-shard events travel through each shard's
// outbox and are drained into the owning shard's queue at every window
// barrier.  A single shard has no boundary: its lookahead is unbounded, so
// a run is one window per sampler / stream interval.
//
// Control-plane events (link faults, SM traps / sweeps / LFT programs) have
// no lookahead -- a program takes effect the instant it lands -- so they sit
// in shard 0's control queue and any timestep holding one runs as a
// *sequential global step*: every event pending at that instant dispatches
// one at a time in event order (sim/event_queue.hpp).
//
// Determinism: results are bit-identical for ANY shard count and ANY thread
// count (tests/parallel/shard_parity_test.cpp).  Two mechanisms carry the
// guarantee:
//   * same-timestamp dispatch is ordered by event content, not by which
//     queue scheduled the event first;
//   * Packet::corder (generation order) is the content tie-break key,
//     because pool ids diverge across shard counts.
// Delivery statistics need neither: they are integer sums, counts and
// maxima, so each shard accumulates its own and the merge adds them up.
//
// Time-resolved telemetry is driver-owned: the interval sampler
// (SimConfig::sample_interval_ns) and the JSONL metrics stream
// (OpenLoopOptions::metrics) clip windows at their boundaries like a
// zero-lookahead event, sum fleet-wide counters for their deltas and merge
// every shard's gauges -- splitting a window is always a valid
// conservative-sync schedule, so both are result-neutral.  The engine
// self-profile (SimConfig::profile) reads host clocks and existing counters
// only and never moves a window boundary (tests/obs/profile_parity_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "obs/profile.hpp"
#include "sim/engine.hpp"

namespace mlid {

class Driver {
 public:
  /// Dispatches every shard's events strictly before the window end by
  /// calling drain_shard once per shard, from any threads.  Empty: drain
  /// the shards in order on the calling thread.
  using WindowDrain = std::function<void(SimTime window_end)>;
  /// Folds shards 1.. into shard 0 once the last window has closed.
  using Merge = std::function<void()>;

  /// `lookahead` is the minimum simulated time an event takes to cross a
  /// shard boundary (kSimTimeNever for one shard).  `threads` is the worker
  /// count the caller's WindowDrain uses, reported in the profile and the
  /// metrics stream summary.  The shards must outlive the driver.
  Driver(std::span<Simulation> shards, SimTime lookahead,
         std::uint32_t threads = 1);

  /// Open-loop run to the config's end time.
  SimResult run(const WindowDrain& drain = {}, const Merge& merge = {});
  /// Burst run until every queued segment has been delivered.
  BurstResult run_to_completion(const WindowDrain& drain = {},
                                const Merge& merge = {});

  /// Dispatches shard `i`'s events strictly before `window_end`.  Safe to
  /// call concurrently for distinct shards inside one window.
  void drain_shard(std::uint32_t i, SimTime window_end);

  /// Queue stats summed over `shards` (control plane included); ladder
  /// internals max-merge, except that the bucket count and width are the
  /// finest shard's ring.
  [[nodiscard]] static EventQueueStats queue_stats(
      std::span<const Simulation> shards);

 private:
  /// Fleet-wide counters behind the sampler's and the stream's deltas.
  struct Counters {
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t becn = 0;
  };

  [[nodiscard]] Simulation& root() { return shards_.front(); }
  [[nodiscard]] bool sampling() const {
    return shards_.front().timeline_.enabled();
  }
  /// The window loop, the last mailbox drain and the per-shard invariant
  /// checks (each shard's pool still owns its packets before any merge).
  void drive(SimTime end, const WindowDrain& drain);
  void window_loop(SimTime end, const WindowDrain& drain);
  /// Runs the events in [horizon, window_end) on every shard.
  void run_window(SimTime horizon, SimTime window_end,
                  const WindowDrain& drain);
  /// Moves every outbox entry into its owner's queue.
  void drain_mailboxes();
  /// Sequential global timestep: dispatches every pending event at exactly
  /// `t` -- across all shards and the control queue -- in event order.
  void step_at(SimTime t);
  void dispatch_control(const Event& e);
  /// Snapshots one TimelineSample into shard 0's timeline at `t`.
  void take_sample(SimTime t);
  /// Emits one JSONL "window" line at `t`.
  void emit_stream_window(SimTime t, bool partial);
  [[nodiscard]] Counters fleet_counters() const;

  std::span<Simulation> shards_;
  SimTime lookahead_;
  std::uint32_t threads_;
  bool profiling_ = false;
  SimTime next_sample_ = kSimTimeNever;
  MetricsStreamer* stream_ = nullptr;
  SimTime next_stream_ = kSimTimeNever;
  SimTime last_stream_ = 0;
  Counters sampled_;   ///< fleet counters at the last sample
  Counters streamed_;  ///< fleet counters at the last stream line

  // --- engine self-profiler (inert unless profiling_; obs/profile.hpp).
  // Per-shard wall time accumulates inside drain_shard (each shard is
  // drained by exactly one worker per window and the window barrier
  // publishes the writes); barrier wait is window wall minus a shard's own
  // drain time.
  ProfileSummary profile_;
  std::vector<std::uint64_t> win_shard_ns_;      ///< per-shard drain wall, this window
  std::vector<std::uint64_t> win_shard_events_;  ///< per-shard processed, window start
  OnlineStats window_width_;  ///< simulated-ns window widths
  OnlineStats imbalance_;     ///< per-window max/mean events-per-shard factor
};

}  // namespace mlid
