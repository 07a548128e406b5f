// Event-driven InfiniBand subnet simulator.
//
// Models, at packet granularity (see DESIGN.md §6):
//   * crossbar switches with per-(port, VL) input/output buffers,
//   * deterministic LFT forwarding with a fixed routing/arbitration delay,
//   * virtual cut-through (forwarding begins after the head is routed; the
//     serialization time is paid once end-to-end when uncontended),
//   * credit-based link-level flow control per VL,
//   * round-robin VL arbitration on each physical link,
//   * endnode NICs with per-VL source queues injecting at a constant rate.
//
// Every run is bit-deterministic for a given (config, traffic) seed pair.
#pragma once

#include <vector>

#include "cc/cct.hpp"
#include "cc/telemetry.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/packet_pool.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "subnet/sm.hpp"
#include "subnet/subnet.hpp"

namespace mlid {

class MetricsStreamer;

/// Optional extras for Simulation::open_loop.  Attaching a live Subnet
/// Manager here -- rather than through a post-construction setter -- makes
/// the old "attach after run()" misuse unrepresentable by construction.
struct OpenLoopOptions {
  /// Live Subnet Manager (non-owning; must outlive the simulation).  The
  /// fault schedule's link failures and recoveries become simulation
  /// events: packets caught on a failing link are dropped, stale tables
  /// misroute until the SM's trap-driven re-sweep reprograms the switches,
  /// and the timeline lands in SimResult.  With an empty schedule the run
  /// is bit-identical to an unattached one.
  SubnetManager* live_sm = nullptr;
  FaultSchedule faults;
  /// JSONL metrics stream (non-owning; must outlive the run).  The engine
  /// emits a "window" line every MetricsStreamer::interval_ns() of
  /// simulated time plus one "summary" line at run end.  Passive like the
  /// interval sampler: results are byte-identical with streaming on/off
  /// (tests/obs/metrics_stream_test.cpp).
  MetricsStreamer* metrics = nullptr;
};

/// One event crossing a shard boundary in a sharded run (see
/// parallel/sharded.hpp): a plain value the driver (sim/driver.hpp) carries
/// from the scheduling shard's outbox into the owning shard's queue at the
/// next window barrier.  Packet handoffs (kHeadArrive) carry the packet by
/// value; the receiver re-allocates it in its own pool.
struct ShardMessage {
  SimTime time = 0;
  EventKind kind = EventKind::kGenerate;
  DeviceId dev = kInvalidDevice;
  PacketId pkt = kInvalidPacket;  ///< payload field (BECN dst, recover endpoint)
  PortId port = 0;
  VlId vl = 0;
  std::uint64_t corder = 0;
  bool has_packet = false;
  Packet packet;  ///< valid when has_packet
};

/// Binding of one Simulation instance into a sharded run, installed at
/// construction.  The partition tables live on the heap inside
/// ShardedSimulation, so they stay put when that object moves.  The default
/// binding is the whole fabric on one shard.
struct ShardBinding {
  std::uint32_t shard_id = 0;
  std::uint32_t num_shards = 1;
  const std::vector<std::uint32_t>* dev_shard = nullptr;   ///< by DeviceId
  const std::vector<std::uint32_t>* node_shard = nullptr;  ///< by NodeId
};

class Simulation {
 public:
  /// Open-loop mode: `offered_load` is the per-node injection rate as a
  /// fraction of the endnode link bandwidth (1.0 = one packet every
  /// packet_wire_ns).  Use run().
  [[nodiscard]] static Simulation open_loop(const Subnet& subnet,
                                            const SimConfig& config,
                                            const TrafficConfig& traffic,
                                            double offered_load,
                                            const OpenLoopOptions& options = {});

  /// Closed-loop (burst) mode: segments every message at the MTU
  /// (config.packet_bytes) and queues all segments at t = 0.  Use
  /// run_to_completion().
  [[nodiscard]] static Simulation burst(
      const Subnet& subnet, const SimConfig& config,
      const std::vector<MessageSpec>& workload);

  /// Run to config.end_time() and return the collected metrics
  /// (open-loop mode only).  Drives this engine as the single shard of the
  /// window loop (sim/driver.hpp).
  SimResult run();

  /// Drain the burst workload and report makespan / message latencies
  /// (burst mode only).
  BurstResult run_to_completion();

  /// Post-run diagnostics: every output port still holding packets, its
  /// credit counters and crossbar wait queues.  Empty string when the
  /// network fully drained (modulo source queues).
  [[nodiscard]] std::string stall_report() const;

  /// Timelines of up to SimConfig::trace_packets generated packets, taken
  /// every SimConfig::trace_stride-th generation (empty when tracing is
  /// off).  Valid after run().
  [[nodiscard]] const std::vector<PacketTraceRecord>& traces() const noexcept {
    return traces_;
  }

  /// The interval sampler's output (empty unless
  /// SimConfig::sample_interval_ns > 0).  Also exported in
  /// SimResult::timeline; valid after run().
  [[nodiscard]] const Timeline& timeline() const noexcept { return timeline_; }

  /// Control-plane events (faults, SM pipeline, CC loop) in dispatch order
  /// (empty unless SimConfig::trace_control).  Valid after run().
  [[nodiscard]] const std::vector<ControlTraceRecord>& control_trace()
      const noexcept {
    return control_trace_;
  }

  /// The flight recorder's frozen ring: the last K engine events on the
  /// first dropping device (invalid when SimConfig::flight_recorder_depth
  /// is 0 or nothing dropped).  Also rendered to stderr at freeze time.
  [[nodiscard]] const FlightRecorderDump& flight_dump() const noexcept {
    return flight_dump_;
  }

  /// Per-directed-link transmission counts and busy fractions, in
  /// deterministic (device, port) order.  Valid after run().
  [[nodiscard]] std::vector<LinkLoad> link_loads() const;

  /// Full per-link / per-VL telemetry (bytes, busy time, credit stalls,
  /// peak queue depths), in deterministic (device, port) order.  Requires
  /// SimConfig::telemetry; valid after run() / run_to_completion().
  [[nodiscard]] std::vector<LinkStats> link_stats() const;

  /// Token-conservation self-check over the devices this engine owns: every
  /// output slot/credit counter must still balance against its capacity and
  /// every transmission in progress must hold a live pool packet.  Throws
  /// ContractViolation on the first violation; the driver calls it on every
  /// shard before returning.
  void check_invariants() const;

  /// Internals of the pending-event queue this run executed on
  /// (scheduled/processed counts including the control plane, ladder bucket
  /// occupancy / side pushes / overflow depth).  Pure host-performance
  /// metadata: the pop order, and so every result, is fixed by the event
  /// order alone.
  [[nodiscard]] EventQueueStats queue_stats() const noexcept {
    EventQueueStats s = events_.stats();
    s.events_scheduled += control_.events_scheduled();
    s.events_processed += control_.events_processed();
    return s;
  }

  /// Per-HCA congestion-control counters (BECNs, throttled time, peak CCT
  /// index), indexed by NodeId.  Empty unless SimConfig::cc is enabled;
  /// valid after run() / run_to_completion().
  [[nodiscard]] std::vector<CcNodeStats> cc_node_stats() const;

  /// Analytic engine-resident heap footprint in bytes: the packet pool,
  /// the flat per-port / per-VL arrays, source queues, timeline, traces
  /// and delivery accumulators.  Deliberately *not* an RSS probe, so it is
  /// stable under sanitizers and across allocators; the scale bench divides
  /// it by the fabric's port count for the bytes/endport budget.  Excludes the
  /// pending-event queue (bounded by in-flight events, not fabric size)
  /// and the routing tables (CompiledRoutes::memory_bytes()).
  [[nodiscard]] std::size_t memory_footprint() const noexcept;

 private:
  /// The driver (sim/driver.hpp) runs every simulation through the private
  /// machinery: it pops and dispatches events, drains outboxes and owns the
  /// control plane.  The sharded engine (parallel/sharded.hpp) builds the
  /// shards and merges their results.
  friend class Driver;
  friend class ShardedSimulation;

  // --- engine state types ----------------------------------------------------
  //
  // Hot per-port / per-VL state lives in flat struct-of-arrays storage,
  // indexed through a prefix sum over device port counts:
  //
  //   fp = port_base_[dev] + port     physical-port slot (ports are 1-based;
  //                                   slot 0 of every device is unused)
  //   vs = fp * vls_ + vl             (port, VL) slot
  //
  // Packet FIFOs are intrusive PacketQueues threaded through the pool's
  // per-slot links (sim/packet_pool.hpp): 16 bytes per queue instead of a
  // std::deque and its heap blocks, and the arbitration hot loop touches
  // three small parallel arrays instead of striding over 100+-byte structs.

  /// Cold per-(port, VL) counters: telemetry accumulators (only touched
  /// when cfg_.telemetry is on) kept out of the hot arrays.
  struct VlTelemetry {
    std::uint64_t pkts_tx = 0;
    std::uint64_t bytes_tx = 0;
    SimTime stall_since = -1;     ///< head blocked on credits since (-1 = no)
    SimTime credit_stall_ns = 0;  ///< accumulated credit-blocked idle time
    std::uint32_t peak_queue_pkts = 0;
    std::uint64_t fecn_marks = 0;  ///< marks stamped here (telemetry only)
  };
  struct PacketRt {
    DeviceId dev = kInvalidDevice;
    PortId in_port = 0;  ///< 0 = came from the local source queue
    PortId out_port = 0;
    std::int32_t trace = -1;  ///< index into traces_, -1 = untraced
    /// Transmissions whose tail is still draining this packet (a cut-through
    /// packet can span several links).  The slot is only released once
    /// this drops to zero, so no transmission ever holds a dead packet.
    std::uint8_t wire_refs = 0;
    /// Dropped, delivered or handed to another shard while a tail was still
    /// draining it: the last tail-out releases it.
    bool retired = false;
  };
  struct NodeState {
    double next_gen_ns = 0.0;
    std::uint64_t queued_pkts = 0;
    std::uint64_t generated = 0;  ///< per-source Packet::corder counter
  };
  /// Every per-delivery accumulator, fed by on_deliver.  All hold integer
  /// counts, sums or maxima, so merge() folds the shards of a run, in any
  /// order, into exactly what one shard would have collected.
  struct DeliveryStats {
    // Measurement window only.
    ExactStats latency;      ///< generation -> delivery
    ExactStats net_latency;  ///< injection -> delivery
    ExactStats hops;
    Histogram latency_hist{0.0, 400'000.0, 4000};
    std::vector<ExactStats> latency_per_vl;
    std::vector<std::uint64_t> bytes_per_node;
    // Hot-spot victim breakdown (only fed on kCentric traffic).
    ExactStats victim, hot;
    Histogram victim_hist{0.0, 400'000.0, 4000};
    Histogram hot_hist{0.0, 400'000.0, 4000};
    // Multi-tenant accounting by tenant id (empty unless tenants are on).
    std::vector<ExactStats> tenant_latency;
    std::vector<std::uint64_t> tenant_bytes;
    // Telemetry views (only fed with cfg_.telemetry), see SimResult.
    Log2Histogram latency_log2, queue_log2, network_log2;
    std::vector<Log2Histogram> latency_log2_per_vl;
    // Whole run.
    SimTime last = 0;         ///< latest delivery
    ExactStats msg_latency;   ///< burst message completion times
    Log2Histogram msg_latency_hist;
    void merge(const DeliveryStats& other);
  };

  /// Per-HCA congestion-control state (only populated when cfg_.cc.enabled).
  struct CcNode {
    /// Per-destination earliest next injection: the CCT delay is an
    /// inter-packet gap on the throttled *flow*, so a source full of
    /// victim traffic is not stalled by one congested destination
    /// (beyond FIFO head-of-line blocking while a gated head waits).
    std::vector<SimTime> next_allowed;
    bool release_scheduled = false; ///< a kCcRelease is already queued
    bool timer_armed = false;       ///< a kCctTimer is already queued
    CcNodeStats stats;
  };

  /// One pooled trace event: packet traces append here during the run and
  /// are distributed into traces_[rec].events once at run end, replacing
  /// per-record vector growth on the hot path.
  struct PendingTraceEvent {
    std::int32_t rec = -1;  ///< index into traces_
    TraceEvent ev;
  };

  // --- flat-state index helpers ----------------------------------------------
  [[nodiscard]] std::size_t port_index(DeviceId dev, PortId port) const noexcept {
    return port_base_[dev] + port;
  }
  [[nodiscard]] std::size_t vl_index(std::size_t fp,
                                     std::size_t vl) const noexcept {
    return fp * vls_ + vl;
  }

  // --- event handlers ---------------------------------------------------------
  void on_generate(NodeId node, SimTime now);
  void on_head_arrive(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                      SimTime now);
  void on_routed(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                 SimTime now);
  void on_tail_out(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                   SimTime now);
  void on_deliver(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                  SimTime now);

  // --- congestion control (IBA CCA) -------------------------------------------
  [[nodiscard]] bool cc_on() const noexcept { return cfg_.cc.enabled; }
  /// Stamps the FECN bit (idempotent; counters see the first mark only).
  void mark_fecn(PacketId pkt, bool stall_mark, DeviceId dev, PortId port,
                 VlId vl);
  /// A BECN from destination `dst` lands at source HCA `src`.
  void on_becn(NodeId src, NodeId dst, SimTime now);
  void on_cct_timer(NodeId node, SimTime now);
  void on_cc_release(NodeId node, SimTime now);
  [[nodiscard]] CcSummary collect_cc() const;

  // --- live SM / fault handling ----------------------------------------------
  // DropReason (sim/trace.hpp) names the taxonomy; `dev` is where the
  // packet died (freezes that device's flight-recorder ring on the first
  // drop).
  void count_drop(DropReason reason, PacketId pkt, DeviceId dev, SimTime now);
  void kill_port(DeviceId dev, PortId port, SimTime now);
  void revive_port(DeviceId dev, PortId port);
  void drop_in_switch(PacketId pkt, SimTime now);
  [[nodiscard]] const CompactLft& live_lft(SwitchId sw) const {
    return sm_ ? sm_->lft(sw) : subnet_->routes().lft(sw);
  }

  // --- mechanics ---------------------------------------------------------------
  void try_source_pull(NodeId node, VlId vl, SimTime now);
  /// `deterministic` is the LFT answer for the packet's DLID (the caller
  /// already looked it up); adaptive mode may override it with another
  /// up-port on the same switch.
  [[nodiscard]] PortId pick_output(DeviceId dev, const Device& device,
                                   VlId vl, PortId deterministic) const;
  void try_tx(DeviceId dev, PortId port, SimTime now);
  void grant_output(DeviceId dev, PortId out, VlId vl, PacketId pkt,
                    SimTime now);
  void return_credit_upstream(DeviceId dev, PortId in_port, VlId vl,
                              SimTime now);
  // Construction happens through the open_loop() / burst() factories only
  // (ShardedSimulation builds its shards with an explicit binding).
  Simulation(const Subnet& subnet, SimConfig config, TrafficConfig traffic,
             double offered_load, bool burst,
             const ShardBinding& binding);  // shared setup
  Simulation(const Subnet& subnet, SimConfig config, TrafficConfig traffic,
             double offered_load, const OpenLoopOptions& options,
             const ShardBinding& binding = {});
  Simulation(const Subnet& subnet, SimConfig config,
             const std::vector<MessageSpec>& workload,
             const ShardBinding& binding = {});
  /// Installs the live SM's tables; shard 0 also queues the fault schedule
  /// on its control plane, which the driver dispatches.
  void attach_live_sm(SubnetManager& sm, const FaultSchedule& faults);

  // --- shard-mode machinery ----------------------------------------------------
  // A shard of a multi-shard run seeds only its owned nodes and routes
  // boundary events through its outbox.  Every shard reads the live SM's
  // tables; only shard 0 queues the faults and carries the metrics stream.
  [[nodiscard]] bool sharded() const noexcept { return shard_.num_shards > 1; }
  [[nodiscard]] bool owns_node(NodeId node) const noexcept {
    return !sharded() || (*shard_.node_shard)[node] == shard_.shard_id;
  }
  /// Shard that owns a device (0 when the fabric is not partitioned).
  [[nodiscard]] std::uint32_t device_shard(DeviceId dev) const noexcept {
    return sharded() ? (*shard_.dev_shard)[dev] : 0;
  }
  /// Shard that must dispatch an event (node-scoped kinds map through the
  /// node partition, device-scoped through the device partition).
  [[nodiscard]] std::uint32_t target_shard(EventKind kind,
                                           DeviceId dev) const noexcept;
  /// Tie-break key for an event (Event::corder).
  [[nodiscard]] std::uint64_t corder_of(EventKind kind, PacketId pkt) const;
  /// The engine's single scheduling point for data-plane events: pushes
  /// locally, or -- in shard mode -- routes other shards' events into the
  /// outbox.  Control-plane events go to the driver's queue (control_).
  void schedule(SimTime time, EventKind kind, DeviceId dev, PortId port = 0,
                VlId vl = 0, PacketId pkt = kInvalidPacket);
  /// Delivers a boundary event from another shard into the local queue,
  /// re-homing a carried packet into the local pool.
  void receive(const ShardMessage& msg);
  /// Tail of run(): assembles SimResult from the accumulated state.  Event
  /// totals are parameters so the driver can pass fleet-wide sums.
  [[nodiscard]] SimResult finalize_open_loop(std::uint64_t events_processed,
                                             std::uint64_t events_scheduled);
  /// Tail of run_to_completion(), same contract.
  [[nodiscard]] BurstResult finalize_burst(std::uint64_t events_processed,
                                           std::uint64_t events_scheduled);
  PacketId alloc_packet();
  /// The packet's journey on this shard is over: release its slot now, or
  /// at its last draining tail-out (see PacketRt::wire_refs).
  void retire_packet(PacketId pkt);
  [[nodiscard]] SimTime wire_ns(PacketId pkt) const {
    return static_cast<SimTime>(pool_.get(pkt).size_bytes) * cfg_.byte_time_ns;
  }
  void dispatch(const Event& e);
  /// Dispatches every pending event strictly before `end`: the body of a
  /// driver window, defined beside dispatch() so the handlers inline into
  /// the loop.
  void drain_until(SimTime end);
  /// The passive recorders every dispatched event passes through (flight
  /// recorder, control trace); the driver calls it for control events.
  void observe(const Event& e);
  void trace_event(PacketId pkt, SimTime now, TracePoint point, DeviceId dev,
                   PortId port, VlId vl,
                   DropReason drop = DropReason::kNone);
  /// Distributes the pooled trace arena into traces_[i].events (run end).
  void materialize_traces();
  // --- time-resolved observability (all passive; see sim/timeline.hpp) -------
  /// Fills the gauge fields of `s` by scanning this engine's (owned)
  /// devices and HCAs; the driver's sampler sums them across shards.
  void collect_sample_gauges(TimelineSample& s) const;
  void record_flight(const Event& e);
  void record_control(const Event& e);
  /// The device a dispatched event belongs to for the flight recorder
  /// (node-scoped events map to the node's NIC; -1 = not device-scoped).
  [[nodiscard]] std::int64_t flight_device_of(const Event& e) const;
  void freeze_flight_dump(DeviceId dev, SimTime at, std::string cause);
  [[nodiscard]] FlightRecorderDump render_flight_ring(DeviceId dev, SimTime at,
                                                      std::string cause) const;
  /// On an engine-invariant failure: renders the last-touched device's ring
  /// to stderr (no-op without the flight recorder).
  void dump_last_flight() const;
  [[nodiscard]] VlId assign_vl(NodeId src, NodeId dst);
  void accumulate_utilization(std::size_t fp, SimTime start, SimTime end);
  /// Closes open credit-stall intervals at `end` and rolls the per-link /
  /// per-VL counters up into a LinkSummary (utilization is busy time over
  /// `window_ns`).  No-op without cfg_.telemetry.
  LinkSummary finish_link_telemetry(SimTime end, SimTime window_ns);
  void note_queue_depth(DeviceId dev, PortId out, VlId vl);

  // --- wiring -------------------------------------------------------------------
  const Subnet* subnet_;
  SubnetManager* sm_ = nullptr;  ///< live tables + SM state machine, optional
  ShardBinding shard_;
  std::vector<ShardMessage> outbox_;  ///< shard mode: other shards' events
  SimConfig cfg_;
  TrafficPattern traffic_;
  double offered_load_;
  double gen_interval_ns_;

  EventQueue events_;
  /// The control plane (faults, SM traps / sweeps / LFT programs): zero
  /// lookahead, so the driver dispatches it in sequential global steps.
  /// Only shard 0's is used.
  EventQueue control_;
  PacketPool pool_;          ///< generation-checked slots + intrusive links
  std::vector<PacketRt> rt_; ///< routing scratch, parallel to the pool

  // --- flat per-port / per-VL state (see the layout comment above) -----------
  std::vector<std::size_t> port_base_;  ///< per device + one end sentinel
  std::size_t vls_ = 1;                 ///< cfg_.num_vls as an index stride
  // Indexed by physical-port slot fp:
  std::vector<PortRef> port_peer_;
  std::vector<SimTime> port_busy_until_;
  std::vector<SimTime> port_busy_in_window_;
  std::vector<std::uint64_t> port_packets_tx_;
  std::vector<std::int32_t> port_wrr_vl_;      ///< VL whose round is running
  std::vector<std::int32_t> port_wrr_budget_;  ///< packets it may still send
  std::vector<std::uint8_t> port_connected_;
  // Indexed by (port, VL) slot vs:
  std::vector<PacketQueue> vl_q_;     ///< granted packets awaiting the wire
  std::vector<PacketQueue> vl_wait_;  ///< crossbar wait queue
  std::vector<std::int32_t> vl_free_slots_;
  std::vector<std::int32_t> vl_credits_;  ///< downstream input slots available
  /// The head packet whose transmission is in progress (kInvalidPacket when
  /// the wire is idle).  Popped out of vl_q_ at transmit time: the pool owns
  /// exactly one intrusive link per packet, and the downstream hop queues
  /// the packet again (head arrival outruns our tail-out), so the
  /// transmitting head must not stay linked here.  It still occupies its
  /// output slot until tail-out frees it.
  std::vector<PacketId> vl_tx_pkt_;
  /// Congestion control's credit-stall clock (only touched when
  /// cfg_.cc.enabled).  A separate clock from the telemetry one in
  /// VlTelemetry: CC behavior must be identical whether telemetry is on
  /// or off.
  std::vector<SimTime> vl_cc_stall_since_;
  std::vector<VlTelemetry> vl_cold_;
  std::vector<PacketQueue> src_q_;  ///< NIC source queues [node * vls_ + vl]
  std::vector<PacketId> scratch_;   ///< kill_port queue snapshot

  std::vector<NodeState> nodes_;
  std::vector<PortId> first_up_port_;  ///< per device; 0 = no up ports
  /// Per-source VL streams, read only by the VL map (assign_vl), so a map
  /// that draws nothing leaves every other stream untouched.
  std::vector<Xoshiro256> vl_rng_;

  // --- forwarding / VL-map policies (routing/adaptive.hpp) --------------------
  std::unique_ptr<ForwardingPolicy> fwd_policy_;
  std::unique_ptr<VlMapPolicy> vl_map_;
  bool adaptive_ = false;   ///< cached !fwd_policy_->deterministic()
  /// pick_output's candidate scratch (adaptive only; avoids per-hop
  /// allocation).  Mutable: pick_output is const and the scratch carries no
  /// state across calls.
  mutable std::vector<UpPortCandidate> uplink_scratch_;
  /// FECN marks per (port, VL) slot: the CC-derived selection signal the
  /// adaptive policy reads.  Sized only when the policy is adaptive *and*
  /// CC is enabled; kept separate from VlTelemetry::fecn_marks so policy
  /// behaviour never depends on the observability flags.
  std::vector<std::uint32_t> vl_fecn_signal_;

  // --- congestion control (empty / zero unless cfg_.cc.enabled) ---------------
  std::vector<CcNode> cc_nodes_;                    ///< per HCA
  std::vector<CongestionControlTable> cct_;         ///< per HCA
  std::uint64_t cc_fecn_marked_ = 0;
  std::uint64_t cc_fecn_depth_marks_ = 0;
  std::uint64_t cc_fecn_stall_marks_ = 0;
  std::uint64_t cc_becn_sent_ = 0;
  std::uint64_t cc_timer_fires_ = 0;
  std::vector<std::uint64_t> cc_index_hist_;        ///< [0, cct_levels]

  // --- time-resolved observability (empty / inert unless configured) ---------
  Timeline timeline_;  ///< shard 0's is the one the driver samples into
  std::vector<FlightEvent> flight_ring_;   ///< [dev * depth + slot]
  std::vector<std::uint32_t> flight_pos_;  ///< next write slot per device
  std::vector<std::uint32_t> flight_len_;  ///< valid entries per device
  DeviceId last_flight_dev_ = kInvalidDevice;
  FlightRecorderDump flight_dump_;
  std::vector<ControlTraceRecord> control_trace_;

  // --- engine self-profile + metrics stream (inert unless configured) --------
  /// Installed by the driver before finalize_open_loop when cfg_.profile;
  /// copied into SimResult::profile.
  ProfileSummary profile_;
  MetricsStreamer* stream_ = nullptr;  ///< non-owning, from OpenLoopOptions

  // --- metrics accumulation -------------------------------------------------
  SimResult result_;
  std::vector<PacketTraceRecord> traces_;
  std::vector<PendingTraceEvent> trace_arena_;
  DeliveryStats delivery_;
  [[nodiscard]] int tenant_of(NodeId node) const noexcept {
    return tenant_of_node(node, cfg_.tenants.count,
                          static_cast<std::uint32_t>(nodes_.size()));
  }

  // --- burst (closed-loop) mode ----------------------------------------------
  bool burst_ = false;
  std::vector<std::uint32_t> msgs_;  ///< segments not yet delivered, by id
  std::uint64_t burst_bytes_ = 0;
};

}  // namespace mlid
