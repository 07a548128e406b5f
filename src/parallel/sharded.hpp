// Sharded simulation: one run split across a partitioned fabric.
//
// Partitions the fabric into per-subtree shards (parallel/partition.hpp),
// gives each shard its own event queue and engine state, and hands the
// shards to the one run loop (sim/driver.hpp), which advances them in
// conservative-sync windows bounded by the link lookahead.  What sharding
// adds on top of that loop lives here: the partition, a worker pool that
// drains the shards of one window in parallel, and the end-of-run merge --
// owned device / CC state folds into shard 0 and so do the counters and
// delivery statistics every shard collected on its own.
//
// Results are bit-identical for ANY shard count and ANY thread count,
// including a single shard, which is exactly Simulation::run (asserted by
// tests/parallel/shard_parity_test.cpp; sim/driver.hpp says why).
//
// A ShardedSimulation is movable: the shards own their outboxes, and the
// partition tables they read live on the heap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "parallel/partition.hpp"
#include "sim/engine.hpp"

namespace mlid {

/// Parallelism knobs of one sharded run.
struct ShardOptions {
  std::uint32_t shards = 1;   ///< fabric partitions (1 = one engine)
  /// Worker threads draining shard queues inside a window; 0 = one per
  /// shard, capped at the hardware concurrency.  Any value yields
  /// bit-identical results; threads only change wall-clock time.
  std::uint32_t threads = 0;
};

/// Drop-in parallel counterpart of Simulation::open_loop / Simulation::burst:
/// same inputs, same SimResult / BurstResult, computed across shards.
class ShardedSimulation {
 public:
  [[nodiscard]] static ShardedSimulation open_loop(
      const Subnet& subnet, const SimConfig& config,
      const TrafficConfig& traffic, double offered_load,
      const ShardOptions& par, const OpenLoopOptions& options = {});

  [[nodiscard]] static ShardedSimulation burst(
      const Subnet& subnet, const SimConfig& config,
      const std::vector<MessageSpec>& workload, const ShardOptions& par);

  /// Open-loop run to config.end_time(); call once.
  SimResult run();

  /// Drain the burst workload; call once.
  BurstResult run_to_completion();

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return plan_->num_shards;
  }
  /// Worker threads the window drains actually use (requested threads
  /// resolved against the shard count and hardware concurrency).
  [[nodiscard]] std::uint32_t threads_used() const noexcept {
    return threads_used_;
  }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return *plan_; }

  /// Fleet-wide queue stats: events summed over every shard queue plus the
  /// control queue; ladder internals max-merged across shards.
  [[nodiscard]] EventQueueStats queue_stats() const;

  /// Fleet-wide hot-state bytes: Simulation::memory_footprint() summed over
  /// every shard.  Each shard sizes its per-port, per-VL and per-node arrays
  /// for the whole fabric, not its owned slice, so this is num_shards copies.
  [[nodiscard]] std::size_t memory_footprint() const noexcept;

  /// First frozen per-shard flight dump (SimConfig::flight_recorder_depth).
  /// Devices are owner-exclusive, so every shard keeps its own host-side
  /// rings and, in a multi-shard run, tags its dump cause with "[shard N]";
  /// this returns the lowest-numbered shard's dump, invalid when no shard
  /// froze one.
  [[nodiscard]] const FlightRecorderDump& flight_dump() const noexcept;

 private:
  ShardedSimulation(const Subnet& subnet, const SimConfig& config,
                    const ShardOptions& par);

  [[nodiscard]] ShardBinding binding(std::uint32_t shard) const noexcept;
  /// Runs the shards through the driver (`run` is Driver::run or
  /// Driver::run_to_completion) with the worker pool around it.
  template <typename Result, typename Run>
  Result drive(Run run);
  /// Folds every non-root shard into shard 0: owned device / CC state moves
  /// over, counters and delivery statistics sum, watermarks max-merge.
  void merge_into_root();

  std::unique_ptr<const ShardPlan> plan_;  ///< heap: shard bindings point in
  std::uint32_t threads_used_ = 1;
  bool burst_ = false;
  bool ran_ = false;
  std::vector<Simulation> shards_;
};

}  // namespace mlid
