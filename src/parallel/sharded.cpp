#include "parallel/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/driver.hpp"

namespace mlid {

namespace {
/// Default worker count when ShardOptions::threads == 0.
[[nodiscard]] std::uint32_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Persistent worker pool with a two-barrier window protocol: the parent
/// writes the window end and releases the start barrier, the workers run
/// their share of the window, and the done barrier closes it and publishes
/// everything back (both barriers give the necessary happens-before edges).
/// A worker exception is parked and rethrown on the parent after the window.
class WindowPool {
 public:
  /// `job(w, window_end)` runs worker w's share of one window.
  WindowPool(std::uint32_t workers,
             std::function<void(std::uint32_t, SimTime)> job)
      : start_(workers + 1), done_(workers + 1), job_(std::move(job)) {
    threads_.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { work(w); });
    }
  }
  WindowPool(const WindowPool&) = delete;
  WindowPool& operator=(const WindowPool&) = delete;
  ~WindowPool() {
    stop_.store(true, std::memory_order_relaxed);
    start_.arrive_and_wait();  // releases the workers into their exit path
  }

  void run_window(SimTime window_end) {
    window_end_ = window_end;
    start_.arrive_and_wait();
    done_.arrive_and_wait();
    if (err_) std::rethrow_exception(std::exchange(err_, nullptr));
  }

 private:
  void work(std::uint32_t w) {
    while (true) {
      start_.arrive_and_wait();
      if (stop_.load(std::memory_order_relaxed)) return;
      try {
        job_(w, window_end_);
      } catch (...) {
        const std::scoped_lock lock(err_mu_);
        if (!err_) err_ = std::current_exception();
      }
      done_.arrive_and_wait();
    }
  }

  std::barrier<> start_;
  std::barrier<> done_;
  std::function<void(std::uint32_t, SimTime)> job_;
  std::atomic<bool> stop_{false};
  SimTime window_end_ = 0;
  std::mutex err_mu_;
  std::exception_ptr err_;
  std::vector<std::jthread> threads_;  ///< last: joins before the rest dies
};
}  // namespace

ShardedSimulation::ShardedSimulation(const Subnet& subnet,
                                     const SimConfig& config,
                                     const ShardOptions& par)
    : plan_(std::make_unique<const ShardPlan>(
          ShardPlan::subtree(subnet.fabric(), par.shards, config))) {
  const std::uint32_t requested =
      par.threads == 0 ? hardware_threads() : par.threads;
  threads_used_ = std::clamp<std::uint32_t>(requested, 1, plan_->num_shards);
  shards_.reserve(plan_->num_shards);
}

ShardBinding ShardedSimulation::binding(std::uint32_t shard) const noexcept {
  return ShardBinding{shard, plan_->num_shards, &plan_->dev_shard,
                      &plan_->node_shard};
}

ShardedSimulation ShardedSimulation::open_loop(const Subnet& subnet,
                                               const SimConfig& config,
                                               const TrafficConfig& traffic,
                                               double offered_load,
                                               const ShardOptions& par,
                                               const OpenLoopOptions& options) {
  ShardedSimulation sim(subnet, config, par);
  for (std::uint32_t i = 0; i < sim.plan_->num_shards; ++i) {
    sim.shards_.push_back(Simulation(subnet, config, traffic, offered_load,
                                     options, sim.binding(i)));
  }
  return sim;
}

ShardedSimulation ShardedSimulation::burst(
    const Subnet& subnet, const SimConfig& config,
    const std::vector<MessageSpec>& workload, const ShardOptions& par) {
  ShardedSimulation sim(subnet, config, par);
  sim.burst_ = true;
  for (std::uint32_t i = 0; i < sim.plan_->num_shards; ++i) {
    sim.shards_.push_back(Simulation(subnet, config, workload, sim.binding(i)));
  }
  return sim;
}

template <typename Result, typename Run>
Result ShardedSimulation::drive(Run run) {
  MLID_EXPECT(!ran_, "a sharded simulation runs once");
  ran_ = true;
  const SimTime lookahead =
      plan_->num_shards > 1 ? plan_->lookahead_ns : kSimTimeNever;
  Driver driver(shards_, lookahead, threads_used_);
  const Driver::Merge merge = [this] { merge_into_root(); };
  if (threads_used_ <= 1) return run(driver, Driver::WindowDrain{}, merge);
  // Worker w drains shards w, w + workers, ...: each shard is drained by
  // exactly one worker per window.
  const std::uint32_t workers = threads_used_;
  const auto num_shards = static_cast<std::uint32_t>(shards_.size());
  WindowPool pool(workers, [&driver, workers, num_shards](std::uint32_t w,
                                                          SimTime we) {
    for (std::uint32_t i = w; i < num_shards; i += workers) {
      driver.drain_shard(i, we);
    }
  });
  return run(driver, [&pool](SimTime we) { pool.run_window(we); }, merge);
}

SimResult ShardedSimulation::run() {
  MLID_EXPECT(!burst_, "burst driver: use run_to_completion()");
  return drive<SimResult>([](Driver& d, const Driver::WindowDrain& drain,
                             const Driver::Merge& merge) {
    return d.run(drain, merge);
  });
}

BurstResult ShardedSimulation::run_to_completion() {
  MLID_EXPECT(burst_, "run_to_completion needs the burst factory");
  return drive<BurstResult>([](Driver& d, const Driver::WindowDrain& drain,
                               const Driver::Merge& merge) {
    return d.run_to_completion(drain, merge);
  });
}

void ShardedSimulation::merge_into_root() {
  Simulation& r = shards_.front();
  const Fabric& g = r.subnet_->fabric().fabric();
  for (std::uint32_t i = 1; i < shards_.size(); ++i) {
    Simulation& s = shards_[i];
    SimResult& a = r.result_;
    const SimResult& b = s.result_;
    a.packets_generated += b.packets_generated;
    a.packets_delivered += b.packets_delivered;
    a.packets_measured += b.packets_measured;
    a.packets_dropped += b.packets_dropped;
    a.dropped_unroutable += b.dropped_unroutable;
    a.dropped_dead_link += b.dropped_dead_link;
    a.dropped_during_convergence += b.dropped_during_convergence;
    a.drops_post_convergence += b.drops_post_convergence;
    a.max_source_queue_pkts =
        std::max(a.max_source_queue_pkts, b.max_source_queue_pkts);
    // Devices are dispatched exclusively by their owner, so the owner's
    // flat per-port / per-VL state (buffer occupancy, link-utilization and
    // telemetry counters, connectivity after faults) is authoritative --
    // copy its slot ranges over.  Every shard shares the same port_base_
    // layout (it is a pure function of the fabric), so the ranges line up.
    // PacketQueue heads/tails inside the copied slots reference the owner's
    // pool; finalization only reads queue *sizes*, never the links.
    const auto copy_range = [](auto& dst, const auto& src, std::size_t lo,
                               std::size_t hi) {
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(lo),
                src.begin() + static_cast<std::ptrdiff_t>(hi),
                dst.begin() + static_cast<std::ptrdiff_t>(lo));
    };
    for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
      if (plan_->dev_shard[dev] != i) continue;
      const std::size_t lo = r.port_base_[dev];
      const std::size_t hi = r.port_base_[dev + 1];
      copy_range(r.port_busy_until_, s.port_busy_until_, lo, hi);
      copy_range(r.port_busy_in_window_, s.port_busy_in_window_, lo, hi);
      copy_range(r.port_packets_tx_, s.port_packets_tx_, lo, hi);
      copy_range(r.port_wrr_vl_, s.port_wrr_vl_, lo, hi);
      copy_range(r.port_wrr_budget_, s.port_wrr_budget_, lo, hi);
      copy_range(r.port_connected_, s.port_connected_, lo, hi);
      const std::size_t vlo = lo * r.vls_;
      const std::size_t vhi = hi * r.vls_;
      copy_range(r.vl_q_, s.vl_q_, vlo, vhi);
      copy_range(r.vl_wait_, s.vl_wait_, vlo, vhi);
      copy_range(r.vl_free_slots_, s.vl_free_slots_, vlo, vhi);
      copy_range(r.vl_credits_, s.vl_credits_, vlo, vhi);
      copy_range(r.vl_tx_pkt_, s.vl_tx_pkt_, vlo, vhi);
      copy_range(r.vl_cc_stall_since_, s.vl_cc_stall_since_, vlo, vhi);
      copy_range(r.vl_cold_, s.vl_cold_, vlo, vhi);
    }
    if (r.cc_on()) {
      r.cc_fecn_marked_ += s.cc_fecn_marked_;
      r.cc_fecn_depth_marks_ += s.cc_fecn_depth_marks_;
      r.cc_fecn_stall_marks_ += s.cc_fecn_stall_marks_;
      r.cc_becn_sent_ += s.cc_becn_sent_;
      r.cc_timer_fires_ += s.cc_timer_fires_;
      for (std::size_t k = 0; k < r.cc_index_hist_.size(); ++k) {
        r.cc_index_hist_[k] += s.cc_index_hist_[k];
      }
      // Per-HCA CC state is node-owner exclusive (BECNs, timers and gates
      // all dispatch on the source's shard).
      for (NodeId node = 0; node < plan_->node_shard.size(); ++node) {
        if (plan_->node_shard[node] != i) continue;
        r.cc_nodes_[node] = std::move(s.cc_nodes_[node]);
        r.cct_[node] = std::move(s.cct_[node]);
      }
    }
    r.delivery_.merge(s.delivery_);
    r.burst_bytes_ += s.burst_bytes_;
  }
}

EventQueueStats ShardedSimulation::queue_stats() const {
  return Driver::queue_stats(shards_);
}

std::size_t ShardedSimulation::memory_footprint() const noexcept {
  std::size_t total = 0;
  for (const Simulation& s : shards_) total += s.memory_footprint();
  return total;
}

const FlightRecorderDump& ShardedSimulation::flight_dump() const noexcept {
  for (const Simulation& s : shards_) {
    if (s.flight_dump().valid()) return s.flight_dump();
  }
  return shards_.front().flight_dump();
}

}  // namespace mlid
