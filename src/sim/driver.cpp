#include "sim/driver.hpp"

#include <algorithm>
#include <chrono>

#include "obs/stream.hpp"

namespace mlid {

namespace {
/// Host nanoseconds since `t0` (profiler clock; never simulation time).
[[nodiscard]] std::uint64_t ns_since(
    std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

Driver::Driver(std::span<Simulation> shards, SimTime lookahead,
               std::uint32_t threads)
    : shards_(shards), lookahead_(lookahead), threads_(threads) {
  MLID_EXPECT(!shards_.empty(), "a run needs at least one shard");
  const Simulation& r = shards_.front();
  // Bursts have no fixed end time and carry no profile or timeline.
  profiling_ = r.cfg_.profile && !r.burst_;
  if (profiling_) {
    profile_.shard_phases.assign(shards_.size(), ShardPhaseProfile{});
    win_shard_ns_.assign(shards_.size(), 0);
    win_shard_events_.assign(shards_.size(), 0);
  }
}

SimResult Driver::run(const WindowDrain& drain, const Merge& merge) {
  Simulation& r = root();
  MLID_EXPECT(!r.burst_, "burst simulation: use run_to_completion()");
  const SimTime end = r.cfg_.end_time();
  const auto run_start = std::chrono::steady_clock::now();
  if (r.timeline_.enabled()) next_sample_ = r.timeline_.interval_ns;
  stream_ = r.stream_;
  if (stream_ != nullptr) next_stream_ = stream_->interval_ns();
  drive(end, drain);
  // The final sub-interval window must go out before the merge folds the
  // other shards' counters into shard 0 (fleet sums would double-count).
  if (stream_ != nullptr && last_stream_ < end) {
    emit_stream_window(end, /*partial=*/true);
  }
  if (merge) merge();
  const EventQueueStats qs = queue_stats(shards_);
  if (profiling_) {
    profile_.enabled = true;
    profile_.shards = static_cast<std::uint32_t>(shards_.size());
    profile_.threads = threads_;
    profile_.total_wall_ns = ns_since(run_start);
    profile_.window_ns_min = static_cast<SimTime>(window_width_.min());
    profile_.window_ns_max = static_cast<SimTime>(window_width_.max());
    profile_.window_ns_mean = window_width_.mean();
    profile_.max_imbalance = imbalance_.max();
    profile_.mean_imbalance = imbalance_.mean();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardPhaseProfile& phase = profile_.shard_phases[i];
      phase.events_processed = shards_[i].events_.events_processed();
      profile_.processing_ns += phase.processing_ns;
      profile_.barrier_wait_ns += phase.barrier_wait_ns;
    }
    profile_.queue_pushes = qs.events_scheduled;
    profile_.queue_pops = qs.events_processed;
    profile_.queue_overflow_pushes = qs.overflow_pushes;
    profile_.queue_side_pushes = qs.side_pushes;
    r.profile_ = profile_;
  }
  r.materialize_traces();
  const SimResult result =
      r.finalize_open_loop(qs.events_processed, qs.events_scheduled);
  if (stream_ != nullptr) {
    MetricsRunSummary summary;
    summary.end_ns = end;
    summary.shards = static_cast<std::uint32_t>(shards_.size());
    summary.threads = threads_;
    summary.generated = result.packets_generated;
    summary.delivered = result.packets_delivered;
    summary.dropped = result.packets_dropped;
    summary.events_processed = result.events_processed;
    summary.profile = &result.profile;
    stream_->run_summary(summary);
  }
  return result;
}

BurstResult Driver::run_to_completion(const WindowDrain& drain,
                                      const Merge& merge) {
  Simulation& r = root();
  MLID_EXPECT(r.burst_, "run_to_completion needs the burst factory");
  drive(kSimTimeNever, drain);
  if (merge) merge();
  MLID_EXPECT(r.result_.packets_delivered + r.result_.packets_dropped ==
                  r.result_.packets_generated,
              "burst did not fully drain");
  r.materialize_traces();
  const EventQueueStats qs = queue_stats(shards_);
  return r.finalize_burst(qs.events_processed, qs.events_scheduled);
}

void Driver::drive(SimTime end, const WindowDrain& drain) {
  try {
    window_loop(end, drain);
    drain_mailboxes();
    for (const Simulation& s : shards_) s.check_invariants();
  } catch (const ContractViolation&) {
    // The flight recorder's second job: on an engine-invariant failure,
    // dump the last-touched device's ring before propagating.
    for (const Simulation& s : shards_) s.dump_last_flight();
    throw;
  }
}

void Driver::drain_shard(std::uint32_t i, SimTime window_end) {
  Simulation& s = shards_[i];
  if (!profiling_) {
    s.drain_until(window_end);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  s.drain_until(window_end);
  const std::uint64_t dt = ns_since(t0);
  profile_.shard_phases[i].processing_ns += dt;
  win_shard_ns_[i] = dt;
}

void Driver::drain_mailboxes() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::vector<ShardMessage>& outbox = shards_[i].outbox_;
    if (outbox.empty()) continue;
    if (profiling_) {
      profile_.shard_phases[i].handoffs_out += outbox.size();
      profile_.handoff_messages += outbox.size();
    }
    for (const ShardMessage& msg : outbox) {
      shards_[shards_[i].target_shard(msg.kind, msg.dev)].receive(msg);
    }
    outbox.clear();
  }
}

void Driver::window_loop(SimTime end, const WindowDrain& drain) {
  EventQueue& control = root().control_;
  // Burst priming can already cross shard boundaries (a leaf switch may
  // live on a different shard than one of its nodes).
  drain_mailboxes();
  while (true) {
    SimTime horizon = kSimTimeNever;
    for (Simulation& s : shards_) {
      if (const Event* e = s.events_.peek()) {
        horizon = std::min(horizon, e->time);
      }
    }
    SimTime control_time = kSimTimeNever;
    if (const Event* c = control.peek()) control_time = c->time;
    horizon = std::min(horizon, control_time);
    // Every event strictly before `horizon` has dispatched, so all sample
    // and stream boundaries up to min(horizon, end) are due now -- before
    // any event at `horizon` runs: a sample at t covers the window ending
    // at t.  The sampler cadence is re-read after each append because
    // decimation doubles it.
    const SimTime due = std::min(horizon, end);
    while (sampling() && next_sample_ <= due) {
      take_sample(next_sample_);
      next_sample_ += root().timeline_.interval_ns;
    }
    while (stream_ != nullptr && next_stream_ <= due) {
      emit_stream_window(next_stream_, /*partial=*/false);
      next_stream_ += stream_->interval_ns();
    }
    if (horizon >= end) return;  // drained, or only post-end events remain
    const SimTime by_lookahead = lookahead_ >= kSimTimeNever - horizon
                                     ? kSimTimeNever
                                     : horizon + lookahead_;
    // A pending sample or stream boundary clips the window like a
    // zero-lookahead control event.
    const SimTime window_end = std::min(
        {by_lookahead, control_time, end, next_sample_, next_stream_});
    if (window_end > horizon) {
      run_window(horizon, window_end, drain);
    } else if (!profiling_) {
      // A control event sits exactly at the horizon: no parallel progress
      // is possible (control has zero lookahead), so run the timestep
      // sequentially and re-open the next window after it.
      step_at(horizon);
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      step_at(horizon);
      profile_.control_ns += ns_since(t0);
      ++profile_.control_steps;
    }
  }
}

void Driver::run_window(SimTime horizon, SimTime window_end,
                        const WindowDrain& drain) {
  // Every event in [horizon, window_end) is safe to dispatch without
  // cross-shard coordination: anything a shard emits during the window
  // lands at >= horizon + lookahead >= window_end.
  const auto drain_all = [&] {
    if (drain) {
      drain(window_end);
      return;
    }
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      drain_shard(i, window_end);
    }
  };
  if (!profiling_) {
    drain_all();
    drain_mailboxes();
    return;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    win_shard_ns_[i] = 0;
    win_shard_events_[i] = shards_[i].events_.events_processed();
  }
  const auto t0 = std::chrono::steady_clock::now();
  drain_all();
  const std::uint64_t window_wall = ns_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  drain_mailboxes();
  profile_.mailbox_ns += ns_since(t1);
  ++profile_.windows;
  window_width_.add(static_cast<double>(window_end - horizon));
  // Barrier wait: the window's wall time minus the shard's own drain time.
  // Under one worker thread this degrades to "time spent while the other
  // shards drained" -- the serialization cost -- which keeps the fraction
  // comparable across thread counts.
  std::uint64_t max_ev = 0;
  std::uint64_t total_ev = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t own = std::min(window_wall, win_shard_ns_[i]);
    profile_.shard_phases[i].barrier_wait_ns += window_wall - own;
    const std::uint64_t ev =
        shards_[i].events_.events_processed() - win_shard_events_[i];
    max_ev = std::max(max_ev, ev);
    total_ev += ev;
  }
  if (total_ev > 0) {
    const double mean_ev =
        static_cast<double>(total_ev) / static_cast<double>(shards_.size());
    imbalance_.add(static_cast<double>(max_ev) / mean_ev);
  }
}

void Driver::step_at(SimTime t) {
  // All shards have reached `t`; dispatch every event at exactly `t` one at
  // a time in event order, draining mailboxes after each so a kill_port's
  // drops or an LFT program's effects land before the next pick.  The
  // comparator's seq tie-break never decides across queues: each (kind,
  // device) pair is owned by exactly one queue, so full content-key ties
  // between queues cannot occur.
  const detail::EventCompare earlier;
  EventQueue& control = root().control_;
  while (true) {
    Simulation* best_shard = nullptr;
    const Event* best = nullptr;
    for (Simulation& s : shards_) {
      const Event* e = s.events_.peek();
      if (e == nullptr || e->time != t) continue;
      if (best == nullptr || earlier(*e, *best)) {
        best = e;
        best_shard = &s;
      }
    }
    if (const Event* c = control.peek();
        c != nullptr && c->time == t && (best == nullptr || earlier(*c, *best))) {
      best = c;
      best_shard = nullptr;
    }
    if (best == nullptr) return;
    if (best_shard == nullptr) {
      dispatch_control(control.pop());
    } else {
      best_shard->dispatch(best_shard->events_.pop());
    }
    drain_mailboxes();
  }
}

void Driver::dispatch_control(const Event& e) {
  Simulation& r = root();
  MLID_EXPECT(r.sm_ != nullptr, "control events need a live SM");
  SubnetManager& sm = *r.sm_;
  EventQueue& control = r.control_;
  const auto owner = [&](DeviceId dev) -> Simulation& {
    return shards_[r.device_shard(dev)];
  };
  // The flight recorder and the control trace file the event under the
  // shard owning its device; LFT programs carry a plan index instead of a
  // device and go to shard 0.
  (e.kind == EventKind::kLftProgram ? r : owner(e.dev)).observe(e);
  switch (e.kind) {
    case EventKind::kLinkFail: {
      // The peer must be read before the SM disconnects the fabric, and
      // first_fault_ns must be visible on every shard before the kills so
      // each shard's drop taxonomy sees the fault.
      const PortRef peer = r.subnet_->fabric().fabric().peer_of(e.dev, e.port);
      if (!peer.valid()) break;  // duplicate schedule entry: already dead
      for (Simulation& s : shards_) {
        if (s.result_.first_fault_ns < 0) s.result_.first_fault_ns = e.time;
      }
      // The SM disconnects the fabric (so LFT lookups see the dead port)
      // and tells us when the endpoints' traps will reach it.
      const auto traps = sm.on_link_fail(e.dev, e.port, e.time);
      owner(e.dev).kill_port(e.dev, e.port, e.time);
      owner(peer.device).kill_port(peer.device, peer.port, e.time);
      for (const auto& trap : traps) {
        control.push(trap.at, EventKind::kTrap, trap.reporter, trap.port);
      }
      break;
    }
    case EventKind::kLinkRecover: {
      // Endpoint B travels in the pkt (device) / vl (port) payload fields.
      const auto dev_b = static_cast<DeviceId>(e.pkt);
      const PortId port_b = e.vl;
      const auto traps =
          sm.on_link_recover(e.dev, e.port, dev_b, port_b, e.time);
      owner(e.dev).revive_port(e.dev, e.port);
      owner(dev_b).revive_port(dev_b, port_b);
      for (const auto& trap : traps) {
        control.push(trap.at, EventKind::kTrap, trap.reporter, trap.port);
      }
      break;
    }
    case EventKind::kTrap:
      if (const auto sweep_done = sm.on_trap(e.dev, e.port, e.time)) {
        control.push(*sweep_done, EventKind::kSweepDone, e.dev);
      }
      break;
    case EventKind::kSweepDone:
      for (const auto& op : sm.on_sweep_done(e.time)) {
        control.push(op.at, EventKind::kLftProgram, op.plan_index, 0, 0,
                     op.epoch);
      }
      break;
    case EventKind::kLftProgram:
      sm.apply_program(e.dev, e.pkt, e.time);
      break;
    default:
      MLID_EXPECT(false, "data event in the control queue");
  }
}

Driver::Counters Driver::fleet_counters() const {
  Counters c;
  for (const Simulation& s : shards_) {
    c.generated += s.result_.packets_generated;
    c.delivered += s.result_.packets_delivered;
    c.dropped += s.result_.packets_dropped;
    c.becn += s.cc_becn_sent_;
  }
  return c;
}

void Driver::take_sample(SimTime t) {
  Timeline& timeline = root().timeline_;
  TimelineSample s;
  s.t_ns = t;
  // `intervals` counts BASE intervals: after d decimations each new sample
  // covers one doubled window, i.e. 2^d base intervals, keeping the
  // per-sample tiling invariant t_ns - prev.t_ns == intervals * base.
  s.intervals =
      static_cast<std::uint32_t>(timeline.interval_ns /
                                 timeline.base_interval_ns);
  const Counters now = fleet_counters();
  s.generated = now.generated - sampled_.generated;
  s.delivered = now.delivered - sampled_.delivered;
  s.dropped = now.dropped - sampled_.dropped;
  s.becn = now.becn - sampled_.becn;
  s.in_flight = now.generated - now.delivered - now.dropped;
  sampled_ = now;
  // Gauge fields accumulate across shards: sums add up, maxima max-merge
  // (each shard only scans its owned devices / HCAs).
  for (const Simulation& sh : shards_) sh.collect_sample_gauges(s);
  timeline.append(s);
}

void Driver::emit_stream_window(SimTime t, bool partial) {
  MetricsWindow w;
  w.t_ns = t;
  w.window_ns = t - last_stream_;
  w.partial = partial;
  w.shards = static_cast<std::uint32_t>(shards_.size());
  const Counters now = fleet_counters();
  w.generated = now.generated - streamed_.generated;
  w.delivered = now.delivered - streamed_.delivered;
  w.dropped = now.dropped - streamed_.dropped;
  w.becn = now.becn - streamed_.becn;
  w.in_flight = now.generated - now.delivered - now.dropped;
  w.events_processed = queue_stats(shards_).events_processed;
  streamed_ = now;
  last_stream_ = t;
  stream_->window(w);
}

EventQueueStats Driver::queue_stats(std::span<const Simulation> shards) {
  EventQueueStats sum = shards.front().queue_stats();
  for (const Simulation& s : shards.subspan(1)) {
    const EventQueueStats q = s.queue_stats();
    sum.events_scheduled += q.events_scheduled;
    sum.events_processed += q.events_processed;
    // Every ring spans the same horizon, so the most buckets and the
    // narrowest width describe one ring: the finest shard's.
    sum.buckets = std::max(sum.buckets, q.buckets);
    sum.bucket_width_ns = std::min(sum.bucket_width_ns, q.bucket_width_ns);
    sum.resizes += q.resizes;
    sum.side_pushes += q.side_pushes;
    sum.overflow_pushes += q.overflow_pushes;
    sum.max_overflow_depth =
        std::max(sum.max_overflow_depth, q.max_overflow_depth);
    sum.max_bucket_events =
        std::max(sum.max_bucket_events, q.max_bucket_events);
  }
  return sum;
}

}  // namespace mlid
