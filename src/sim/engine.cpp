#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "sim/driver.hpp"

namespace mlid {

Simulation Simulation::open_loop(const Subnet& subnet, const SimConfig& config,
                                 const TrafficConfig& traffic,
                                 double offered_load,
                                 const OpenLoopOptions& options) {
  return Simulation(subnet, config, traffic, offered_load, options);
}

Simulation Simulation::burst(const Subnet& subnet, const SimConfig& config,
                             const std::vector<MessageSpec>& workload) {
  return Simulation(subnet, config, workload);
}

Simulation::Simulation(const Subnet& subnet, SimConfig config,
                       TrafficConfig traffic, double offered_load,
                       const OpenLoopOptions& options,
                       const ShardBinding& binding)
    : Simulation(subnet, config, traffic, offered_load, /*burst=*/false,
                 binding) {
  if (options.live_sm != nullptr) {
    attach_live_sm(*options.live_sm, options.faults);
  } else {
    MLID_EXPECT(options.faults.empty(),
                "a fault schedule needs a live SM to react to it");
  }
  stream_ = options.metrics;
}

Simulation::Simulation(const Subnet& subnet, SimConfig config,
                       const std::vector<MessageSpec>& workload,
                       const ShardBinding& binding)
    : Simulation(subnet, config, TrafficConfig{}, /*offered_load=*/1.0,
                 /*burst=*/true, binding) {
  MLID_EXPECT(!workload.empty(), "burst workload is empty");
  MLID_EXPECT(cfg_.sample_interval_ns == 0,
              "the interval sampler is open-loop only (burst runs have no "
              "fixed end time to pace samples against)");
  // The whole burst is one measurement window.
  cfg_.warmup_ns = 0;
  cfg_.measure_ns = kSimTimeNever / 4;
  const std::uint32_t num_nodes = subnet.fabric().params().num_nodes();
  msgs_.reserve(workload.size());
  // Packet::corder is the global segment index over the workload's iteration
  // order, counted across every message even when a shard materializes only
  // its owned sources -- that keeps the key identical for any shard count.
  std::uint64_t segment_corder = 0;
  for (const MessageSpec& spec : workload) {
    MLID_EXPECT(spec.src < num_nodes && spec.dst < num_nodes,
                "message endpoint out of range");
    MLID_EXPECT(spec.src != spec.dst, "self-messages are not modelled");
    MLID_EXPECT(spec.bytes >= 1, "empty message");
    const auto mid = static_cast<MessageId>(msgs_.size());
    std::uint32_t remaining = spec.bytes;
    std::uint32_t segments = 0;
    const bool owned = owns_node(spec.src);
    while (remaining > 0) {
      const std::uint32_t size = std::min(remaining, cfg_.packet_bytes);
      remaining -= size;
      const std::uint64_t corder = segment_corder++;
      ++segments;
      if (!owned) continue;
      const PacketId id = alloc_packet();
      Packet& pkt = pool_.get(id);
      pkt.src = spec.src;
      pkt.dst = spec.dst;
      pkt.slid = subnet_->slid_of(spec.src);
      pkt.dlid = subnet_->select_dlid(spec.src, spec.dst);
      pkt.vl = assign_vl(spec.src, spec.dst);
      pkt.size_bytes = size;
      pkt.generated_at = 0;
      pkt.msg = mid;
      pkt.corder = corder;
      ++result_.packets_generated;
      burst_bytes_ += size;
      NodeState& ns = nodes_[spec.src];
      pool_.push_back(src_q_[static_cast<std::size_t>(spec.src) * vls_ + pkt.vl],
                      id);
      ++ns.queued_pkts;
    }
    // Every shard counts every message's segments; they all land on the
    // destination's shard, which completes the message.
    msgs_.push_back(segments);
  }
  // Prime every owned NIC once; subsequent pulls chain off tail-out events.
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (!owns_node(node)) continue;
    for (int vl = 0; vl < cfg_.num_vls; ++vl) {
      try_source_pull(node, static_cast<VlId>(vl), 0);
    }
  }
}

Simulation::Simulation(const Subnet& subnet, SimConfig config,
                       TrafficConfig traffic, double offered_load, bool burst,
                       const ShardBinding& binding)
    : subnet_(&subnet),
      shard_(binding),
      cfg_(config),
      traffic_(traffic, subnet.fabric().params().num_nodes()),
      offered_load_(offered_load),
      gen_interval_ns_(static_cast<double>(config.packet_wire_ns()) /
                       offered_load) {
  cfg_.validate();
  burst_ = burst;
  if (sharded()) {
    MLID_EXPECT(shard_.dev_shard != nullptr && shard_.node_shard != nullptr,
                "incomplete shard binding");
    // The flight recorder is allowed: devices are owner-exclusive, so each
    // shard keeps host-side rings for its own devices and freezes a dump
    // tagged with its shard id (count_drop).
    MLID_EXPECT(cfg_.trace_packets == 0 && !cfg_.trace_control,
                "per-event observability (packet traces, control trace) "
                "needs a single shard; drop --shards to use it");
  }
  MLID_EXPECT(burst || (offered_load > 0.0 && offered_load <= 1.0),
              "offered load must be in (0, 1]");

  // Flat struct-of-arrays port state: one prefix-sum pass sizes every hot
  // array (see the layout comment in engine.hpp).
  const Fabric& g = subnet.fabric().fabric();
  vls_ = static_cast<std::size_t>(cfg_.num_vls);
  port_base_.resize(static_cast<std::size_t>(g.num_devices()) + 1);
  std::size_t next_fp = 0;
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    port_base_[dev] = next_fp;
    next_fp += static_cast<std::size_t>(g.device(dev).num_ports()) + 1;
  }
  port_base_[g.num_devices()] = next_fp;
  const std::size_t num_fp = next_fp;
  port_peer_.assign(num_fp, PortRef{});
  port_busy_until_.assign(num_fp, 0);
  port_busy_in_window_.assign(num_fp, 0);
  port_packets_tx_.assign(num_fp, 0);
  port_wrr_vl_.assign(num_fp, 0);
  port_wrr_budget_.assign(num_fp, 0);
  port_connected_.assign(num_fp, 0);
  vl_q_.assign(num_fp * vls_, PacketQueue{});
  vl_wait_.assign(num_fp * vls_, PacketQueue{});
  vl_free_slots_.assign(num_fp * vls_, 0);
  vl_credits_.assign(num_fp * vls_, 0);
  vl_tx_pkt_.assign(num_fp * vls_, kInvalidPacket);
  vl_cc_stall_since_.assign(num_fp * vls_, -1);
  vl_cold_.assign(num_fp * vls_, VlTelemetry{});
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    const Device& device = g.device(dev);
    for (PortId port = 1; port <= device.num_ports(); ++port) {
      if (!device.port_connected(port)) continue;
      const std::size_t fp = port_index(dev, port);
      port_connected_[fp] = 1;
      port_peer_[fp] = device.peer(port);
      for (std::size_t vl = 0; vl < vls_; ++vl) {
        vl_free_slots_[vl_index(fp, vl)] = cfg_.out_buf_pkts;
        vl_credits_[vl_index(fp, vl)] =
            cfg_.in_buf_pkts;  // downstream input buffer depth
      }
      port_wrr_budget_[fp] =
          cfg_.vl_weights.empty() ? 1 : cfg_.vl_weights.front();
    }
  }

  const std::uint32_t num_nodes = subnet.fabric().params().num_nodes();
  nodes_.resize(num_nodes);
  src_q_.assign(static_cast<std::size_t>(num_nodes) * vls_, PacketQueue{});
  SplitMix64 seeder(cfg_.seed ^ 0xC0FFEE0000ULL);
  vl_rng_.reserve(num_nodes);
  for (NodeId node = 0; node < num_nodes; ++node) {
    vl_rng_.emplace_back(seeder.next());
  }

  if (cfg_.cc.enabled) {
    cc_nodes_.resize(num_nodes);
    cct_.reserve(num_nodes);
    for (NodeId node = 0; node < num_nodes; ++node) {
      cc_nodes_[node].next_allowed.assign(num_nodes, 0);
      cct_.emplace_back(cfg_.cc, num_nodes);
    }
    cc_index_hist_.assign(static_cast<std::size_t>(cfg_.cc.cct_levels) + 1, 0);
  }

  if (cfg_.sample_interval_ns > 0) {
    timeline_.configure(cfg_.sample_interval_ns, cfg_.timeline_max_samples);
  }
  if (cfg_.flight_recorder_depth > 0) {
    flight_ring_.resize(static_cast<std::size_t>(g.num_devices()) *
                        cfg_.flight_recorder_depth);
    flight_pos_.assign(g.num_devices(), 0);
    flight_len_.assign(g.num_devices(), 0);
  }

  delivery_.latency_per_vl.resize(vls_);
  delivery_.bytes_per_node.assign(num_nodes, 0);
  cfg_.tenants.validate(static_cast<int>(num_nodes));
  const auto tenants = static_cast<std::size_t>(cfg_.tenants.count);
  delivery_.tenant_latency.resize(tenants);
  delivery_.tenant_bytes.assign(tenants, 0);
  result_.telemetry = cfg_.telemetry;
  if (cfg_.telemetry) delivery_.latency_log2_per_vl.resize(vls_);

  // Up-port ranges for the adaptive forwarding policies: on both tree
  // families the up ports of a non-root switch are the contiguous physical
  // range [m/2 + 1, m].
  first_up_port_.assign(g.num_devices(), 0);
  const FatTreeParams& params = subnet.fabric().params();
  for (SwitchId sw = 0; sw < params.num_switches(); ++sw) {
    const SwitchLabel label = switch_from_id(params, sw);
    if (num_up_ports(params, label.level()) > 0) {
      first_up_port_[subnet.fabric().switch_device(sw)] =
          static_cast<PortId>(params.half() + 1);
    }
  }

  // Forwarding / VL-map policies.  Each engine instance (and therefore each
  // shard of a sharded run) owns its own stateless policy objects; the
  // adaptive policy reads only this instance's local occupancy arrays.
  fwd_policy_ = make_forwarding_policy(cfg_.policy.forwarding);
  vl_map_ = make_vl_map_policy(cfg_.policy.vl_map);
  adaptive_ = !fwd_policy_->deterministic();
  if (adaptive_) {
    uplink_scratch_.reserve(static_cast<std::size_t>(params.m()));
    // The FECN selection signal only exists where FECN marking happens.
    if (cfg_.cc.enabled) vl_fecn_signal_.assign(num_fp * vls_, 0);
  }

  // Stagger generation starts uniformly across one interval so all nodes do
  // not fire in lockstep at t = 0.  Burst mode injects nothing here; its
  // workload is queued by the delegating constructor instead.
  if (!burst_) {
    Xoshiro256 stagger(seeder.next());
    for (NodeId node = 0; node < num_nodes; ++node) {
      // Every shard draws every node's stagger (keeping the stream aligned
      // with the sequential run) but seeds generation only for owned nodes.
      nodes_[node].next_gen_ns = stagger.uniform01() * gen_interval_ns_;
      if (!owns_node(node)) continue;
      schedule(static_cast<SimTime>(std::llround(nodes_[node].next_gen_ns)),
               EventKind::kGenerate, node);
    }
  }
}

void Simulation::attach_live_sm(SubnetManager& sm,
                                const FaultSchedule& faults) {
  MLID_EXPECT(!burst_, "the live SM is modelled in open-loop mode");
  MLID_EXPECT(sm_ == nullptr, "a Subnet Manager is already attached");
  MLID_EXPECT(&sm.subnet() == subnet_,
              "the SM must manage the subnet this simulation runs on");
  faults.validate();  // reject recover-before-fail / duplicate fails early
  sm_ = &sm;
  if (shard_.shard_id != 0) return;  // the driver dispatches shard 0's plane
  for (const FaultEvent& f : faults.events()) {
    if (f.fail) {
      control_.push(f.at, EventKind::kLinkFail, f.dev_a, f.port_a);
    } else {
      // kLinkRecover names both endpoints: the second one travels in the
      // otherwise unused pkt (device) and vl (port) payload fields.
      control_.push(f.at, EventKind::kLinkRecover, f.dev_a, f.port_a,
                    static_cast<VlId>(f.port_b),
                    static_cast<PacketId>(f.dev_b));
    }
  }
}

// --- shard-mode event routing ------------------------------------------------

std::uint32_t Simulation::target_shard(EventKind kind,
                                       DeviceId dev) const noexcept {
  switch (kind) {
    case EventKind::kGenerate:
    case EventKind::kBecnArrive:
    case EventKind::kCctTimer:
    case EventKind::kCcRelease:
      // Node-scoped: `dev` carries a NodeId.
      return sharded() ? (*shard_.node_shard)[dev] : 0;
    default:
      return device_shard(dev);
  }
}

std::uint64_t Simulation::corder_of(EventKind kind, PacketId pkt) const {
  switch (kind) {
    case EventKind::kHeadArrive:
    case EventKind::kRouted:
    case EventKind::kTailOut:
    case EventKind::kDeliver:
      return pool_.get(pkt).corder;
    case EventKind::kBecnArrive:
      return pkt;  // payload: the congested destination node
    default:
      // Remaining kinds are either unique per (time, kind, dev, port, vl)
      // or commutative when tied (multiple credit returns to one slot).
      return 0;
  }
}

void Simulation::schedule(SimTime time, EventKind kind, DeviceId dev,
                          PortId port, VlId vl, PacketId pkt) {
  const std::uint64_t corder = corder_of(kind, pkt);
  if (!sharded() || target_shard(kind, dev) == shard_.shard_id) {
    events_.push(time, kind, dev, port, vl, pkt, corder);
    return;
  }
  ShardMessage msg{time, kind, dev, pkt, port, vl, corder, false, Packet{}};
  if (kind == EventKind::kHeadArrive) {
    // Packet handoff: the receiving shard re-homes the copy in its own
    // pool; ours is done once its draining tails are out.
    msg.has_packet = true;
    msg.packet = pool_.get(pkt);
    msg.pkt = kInvalidPacket;
    retire_packet(pkt);
  }
  outbox_.push_back(msg);
}

void Simulation::receive(const ShardMessage& msg) {
  PacketId pkt = msg.pkt;
  if (msg.has_packet) {
    pkt = alloc_packet();
    pool_.get(pkt) = msg.packet;
  }
  events_.push(msg.time, msg.kind, msg.dev, msg.port, msg.vl, pkt, msg.corder);
}

// --- packet pool ------------------------------------------------------------

PacketId Simulation::alloc_packet() {
  const PacketId id = pool_.alloc();
  if (id >= rt_.size()) {
    rt_.emplace_back();
  } else {
    rt_[id] = PacketRt{};
  }
  pool_.get(id) = Packet{};
  return id;
}

void Simulation::retire_packet(PacketId pkt) {
  if (rt_[pkt].wire_refs == 0) {
    pool_.release(pkt);
  } else {
    rt_[pkt].retired = true;
  }
}

VlId Simulation::assign_vl(NodeId src, NodeId dst) {
  const VlRequest req{src, dst, cfg_.num_vls,
                      cfg_.tenants.count > 0 ? tenant_of(src) : -1};
  const VlId vl = vl_map_->assign(req, vl_rng_[src]);
  MLID_ASSERT(std::size_t{vl} < vls_,
              "VL map must stay within the configured VL count");
  return vl;
}

// --- generation / injection --------------------------------------------------

void Simulation::on_generate(NodeId node, SimTime now) {
  const NodeId dst = traffic_.pick_destination(node);
  const PacketId id = alloc_packet();
  Packet& pkt = pool_.get(id);
  pkt.src = node;
  pkt.dst = dst;
  pkt.slid = subnet_->slid_of(node);
  pkt.dlid = subnet_->select_dlid(node, dst);
  pkt.vl = assign_vl(node, dst);
  pkt.size_bytes = cfg_.packet_bytes;
  pkt.generated_at = now;
  pkt.corder = (static_cast<std::uint64_t>(node) << 32) |
               nodes_[node].generated++;
  ++result_.packets_generated;
  if (traces_.size() < cfg_.trace_packets &&
      (result_.packets_generated - 1) % cfg_.trace_stride == 0) {
    rt_[id].trace = static_cast<std::int32_t>(traces_.size());
    traces_.push_back(PacketTraceRecord{node, dst, pkt.dlid, {}});
    trace_event(id, now, TracePoint::kGenerated,
                subnet_->fabric().node_device(node), 0, pkt.vl);
  }

  NodeState& ns = nodes_[node];
  pool_.push_back(src_q_[node * vls_ + pkt.vl], id);
  ++ns.queued_pkts;
  result_.max_source_queue_pkts =
      std::max(result_.max_source_queue_pkts, ns.queued_pkts);
  try_source_pull(node, pkt.vl, now);

  ns.next_gen_ns += gen_interval_ns_;
  schedule(std::max(now + 1,
                    static_cast<SimTime>(std::llround(ns.next_gen_ns))),
           EventKind::kGenerate, node);
}

void Simulation::try_source_pull(NodeId node, VlId vl, SimTime now) {
  NodeState& ns = nodes_[node];
  PacketQueue& queue = src_q_[node * vls_ + vl];
  if (queue.empty()) return;
  PacketId pick = queue.head;
  PacketId prev = kInvalidPacket;
  if (cc_on()) {
    // CCT injection gate, per destination (flow): the previous pull toward
    // a destination set an inter-packet delay on that flow.  A gated head
    // must not head-of-line block other flows sharing this FIFO -- real
    // HCAs schedule per QP -- so pull the first packet whose flow is open
    // (per-destination order is preserved, which is the IB ordering
    // contract).  If every queued flow is gated, retry when the earliest
    // gate opens.
    CcNode& cn = cc_nodes_[node];
    SimTime earliest = std::numeric_limits<SimTime>::max();
    while (pick != kInvalidPacket) {
      const SimTime allowed = cn.next_allowed[pool_.get(pick).dst];
      if (allowed <= now) break;
      earliest = std::min(earliest, allowed);
      prev = pick;
      pick = pool_.next_of(pick);
    }
    if (pick == kInvalidPacket) {
      if (!cn.release_scheduled) {
        cn.release_scheduled = true;
        cn.stats.throttled_ns += static_cast<std::uint64_t>(earliest - now);
        schedule(earliest, EventKind::kCcRelease, node);
      }
      return;
    }
  }
  const DeviceId dev = subnet_->fabric().node_device(node);
  const std::size_t fp = port_index(dev, 1);  // the endnode's single endport
  const std::size_t vs = vl_index(fp, vl);
  if (vl_free_slots_[vs] == 0) return;
  const PacketId pkt = pick;
  pool_.erase_after(queue, prev, pkt);
  --ns.queued_pkts;
  --vl_free_slots_[vs];
  pool_.push_back(vl_q_[vs], pkt);
  if (cc_on()) {
    // The *next* pull toward this destination pays its CCT index as an
    // inter-packet delay (rate throttling, not retroactive blocking).
    const SimTime delay = cct_[node].delay_ns(pool_.get(pkt).dst);
    if (delay > 0) {
      CcNode& cn = cc_nodes_[node];
      cn.next_allowed[pool_.get(pkt).dst] = now + delay;
      ++cn.stats.throttled_pkts;
    }
  }
  rt_[pkt].dev = dev;       // keep the trace index assigned at generation
  rt_[pkt].in_port = 0;
  rt_[pkt].out_port = 1;
  try_tx(dev, 1, now);
}

// --- faults and the live SM --------------------------------------------------

void Simulation::count_drop(DropReason reason, PacketId pkt, DeviceId dev,
                            SimTime now) {
  ++result_.packets_dropped;
  if (!flight_ring_.empty() && !flight_dump_.valid()) {
    std::string cause = std::string("first drop: ") +
                        std::string(to_string(reason));
    if (sharded()) {
      cause += " [shard " + std::to_string(shard_.shard_id) + "]";
    }
    freeze_flight_dump(dev, now, std::move(cause));
  }
  switch (reason) {
    case DropReason::kNone:
      MLID_ASSERT(false, "a drop needs a real reason");
      break;
    case DropReason::kUnroutable:
      ++result_.dropped_unroutable;
      break;
    case DropReason::kDeadLink:
      ++result_.dropped_dead_link;
      break;
    case DropReason::kConvergence:
      ++result_.dropped_during_convergence;
      break;
  }
  // A dropped packet that was injected into an already-converged fabric
  // means recovery did not actually restore full routing — the
  // live-recovery bench asserts this stays 0.  Stragglers routed during
  // the convergence window may still die shortly after the last program
  // lands; those are convergence loss, not a recovery failure.
  if (sm_ != nullptr && result_.first_fault_ns >= 0 && sm_->converged() &&
      pool_.get(pkt).injected_at >= sm_->stats().converged_at) {
    ++result_.drops_post_convergence;
  }
}

/// A packet that was sitting inside a switch (output queue or crossbar wait
/// queue) when its link died: free its input slot and account the loss.
void Simulation::drop_in_switch(PacketId pkt, SimTime now) {
  const PacketRt& rt = rt_[pkt];
  if (rt.in_port != 0) {
    // The input slot it held frees now instead of at transmit time.  The
    // upstream port may itself have just died (multi-link failures at one
    // timestamp): its credits are void, so the return is simply skipped.
    const PortRef up = subnet_->fabric().fabric().peer_of(rt.dev, rt.in_port);
    if (up.valid()) {
      schedule(now + cfg_.flying_time_ns, EventKind::kCreditArrive, up.device,
               up.port, pool_.get(pkt).vl);
    }
  }
  trace_event(pkt, now, TracePoint::kDropped, rt.dev, rt.out_port,
              pool_.get(pkt).vl, DropReason::kDeadLink);
  count_drop(DropReason::kDeadLink, pkt, rt.dev, now);
  retire_packet(pkt);
}

void Simulation::kill_port(DeviceId dev, PortId port, SimTime now) {
  const std::size_t fp = port_index(dev, port);
  MLID_ASSERT(port_connected_[fp], "killing a port twice");
  port_connected_[fp] = 0;
  for (std::size_t vl = 0; vl < vls_; ++vl) {
    const std::size_t vs = vl_index(fp, vl);
    VlTelemetry& cold = vl_cold_[vs];
    if (cold.stall_since >= 0) {  // the stall ends with the link
      cold.credit_stall_ns += now - cold.stall_since;
      cold.stall_since = -1;
    }
    vl_cc_stall_since_[vs] = -1;  // whatever stalled here is dropped below
    // A head already on the wire (vl_tx_pkt_) keeps its events: it is
    // judged at head arrival on the (now dead) far side, and its tail-out
    // still frees this slot.  Everything queued behind it is lost with the
    // link.
    PacketQueue& q = vl_q_[vs];
    if (q.size > 0) {
      // Snapshot the chain so the drops can run back-to-front (matching
      // the historical pop_back order bit-for-bit) while the intrusive
      // queue relinks once.
      scratch_.clear();
      for (PacketId p = q.head; p != kInvalidPacket; p = pool_.next_of(p)) {
        scratch_.push_back(p);
      }
      q = PacketQueue{};
      for (std::size_t i = scratch_.size(); i > 0; --i) {
        ++vl_free_slots_[vs];
        drop_in_switch(scratch_[i - 1], now);
      }
    }
    PacketQueue& waitq = vl_wait_[vs];
    while (!waitq.empty()) {
      const PacketId pkt = pool_.pop_front(waitq);
      drop_in_switch(pkt, now);
    }
  }
}

void Simulation::revive_port(DeviceId dev, PortId port) {
  const std::size_t fp = port_index(dev, port);
  MLID_EXPECT(!port_connected_[fp], "reviving a port that is not down");
  for (std::size_t vl = 0; vl < vls_; ++vl) {
    const std::size_t vs = vl_index(fp, vl);
    MLID_EXPECT(vl_q_[vs].empty() && vl_tx_pkt_[vs] == kInvalidPacket,
                "link recovered while its last transmission is still "
                "draining; space fail and recover events further apart");
    vl_free_slots_[vs] = cfg_.out_buf_pkts;
    vl_credits_[vs] = cfg_.in_buf_pkts;  // the reborn link starts empty
  }
  port_connected_[fp] = 1;
  port_wrr_vl_[fp] = 0;
  port_wrr_budget_[fp] = cfg_.vl_weights.empty() ? 1 : cfg_.vl_weights.front();
}

// --- link transmission ---------------------------------------------------------

void Simulation::accumulate_utilization(std::size_t fp, SimTime start,
                                        SimTime end) {
  const SimTime lo = std::max(start, cfg_.warmup_ns);
  const SimTime hi = std::min(end, cfg_.end_time());
  if (hi > lo) port_busy_in_window_[fp] += hi - lo;
}

void Simulation::try_tx(DeviceId dev, PortId port, SimTime now) {
  const std::size_t fp = port_index(dev, port);
  // A port can go down mid-run with credit returns still queued against
  // it; those late events are simply void.
  if (!port_connected_[fp]) return;
  // A busy port needs no retry: the tail-out that frees it calls try_tx.
  if (port_busy_until_[fp] > now) return;
  // Weighted round-robin VL arbitration (IBA VLArb): the current VL may
  // send up to its weight's worth of packets per round before yielding to
  // the next eligible VL; with no weights configured every VL weighs 1,
  // which is plain round-robin.
  const int vls = cfg_.num_vls;
  const std::size_t vbase = fp * vls_;
  auto weight_of = [&](int vl) {
    return cfg_.vl_weights.empty()
               ? 1
               : cfg_.vl_weights[static_cast<std::size_t>(vl)];
  };
  auto eligible = [&](int vl) {
    const std::size_t vs = vbase + static_cast<std::size_t>(vl);
    return vl_q_[vs].size != 0 && vl_tx_pkt_[vs] == kInvalidPacket &&
           vl_credits_[vs] > 0;
  };
  int chosen = -1;
  for (int i = 0; i < vls; ++i) {
    const int vl = (port_wrr_vl_[fp] + i) % vls;
    if (!eligible(vl)) continue;
    if (i == 0 && port_wrr_budget_[fp] <= 0) continue;  // round used up: yield
    chosen = vl;
    break;
  }
  if (chosen < 0 && eligible(port_wrr_vl_[fp])) {
    // Only the exhausted VL has traffic: start a fresh round for it.
    chosen = port_wrr_vl_[fp];
    port_wrr_budget_[fp] = weight_of(chosen);
  }
  if (chosen < 0) {
    // Nothing eligible on an idle link: any VL whose head is blocked purely
    // on downstream credits starts (or continues) a credit-stall interval,
    // closed when the credit arrives (kCreditArrive) or the link dies.
    if (cfg_.telemetry) {
      for (int vl = 0; vl < vls; ++vl) {
        const std::size_t vs = vbase + static_cast<std::size_t>(vl);
        if (vl_q_[vs].size != 0 && vl_tx_pkt_[vs] == kInvalidPacket &&
            vl_credits_[vs] == 0 && vl_cold_[vs].stall_since < 0) {
          vl_cold_[vs].stall_since = now;
        }
      }
    }
    if (cc_on()) {
      // Same clock, kept separate: CC marking must not depend on whether
      // telemetry collection is enabled.
      for (int vl = 0; vl < vls; ++vl) {
        const std::size_t vs = vbase + static_cast<std::size_t>(vl);
        if (vl_q_[vs].size != 0 && vl_tx_pkt_[vs] == kInvalidPacket &&
            vl_credits_[vs] == 0 && vl_cc_stall_since_[vs] < 0) {
          vl_cc_stall_since_[vs] = now;
        }
      }
    }
    return;  // re-armed by credit arrival / new grant
  }
  if (chosen != port_wrr_vl_[fp]) {
    port_wrr_vl_[fp] = chosen;
    port_wrr_budget_[fp] = weight_of(chosen);
  }
  --port_wrr_budget_[fp];
  const std::size_t vs = vbase + static_cast<std::size_t>(chosen);
  // Unlink the head now: its head arrival downstream (and the queue it
  // joins there) outruns our tail-out, and the pool owns only one
  // intrusive link per packet.  The output slot stays reserved until
  // tail-out (vl_free_slots_ is untouched here).
  const PacketId pkt = pool_.pop_front(vl_q_[vs]);
  vl_tx_pkt_[vs] = pkt;
  ++rt_[pkt].wire_refs;
  --vl_credits_[vs];  // reserve the downstream input slot
  const SimTime wire = wire_ns(pkt);  // segments may be shorter than the MTU
  accumulate_utilization(fp, now, now + wire);
  port_busy_until_[fp] = now + wire;
  ++port_packets_tx_[fp];
  if (cfg_.telemetry) {
    VlTelemetry& cold = vl_cold_[vs];
    ++cold.pkts_tx;
    cold.bytes_tx += pool_.get(pkt).size_bytes;
  }
  const bool from_endnode =
      subnet_->fabric().fabric().device(dev).kind() == DeviceKind::kEndnode;
  if (from_endnode) {
    pool_.get(pkt).injected_at = now;  // head enters the first link
  }
  if (cc_on() && vl_cc_stall_since_[vs] >= 0) {
    // The head finally transmits after a credit-blocked wait.  A long
    // enough stall on a *switch* output is the congestion-tree signature
    // one-deep buffers hide from depth marking; NIC stalls are the
    // throttle's own doing and never self-mark.
    if (!from_endnode &&
        now - vl_cc_stall_since_[vs] >= cfg_.cc.fecn_stall_ns) {
      mark_fecn(pkt, /*stall_mark=*/true, dev, port,
                static_cast<VlId>(chosen));
    }
    vl_cc_stall_since_[vs] = -1;
  }
  trace_event(pkt, now,
              from_endnode ? TracePoint::kInjected : TracePoint::kForwarded,
              dev, port, static_cast<VlId>(chosen));
  const auto vl_id = static_cast<VlId>(chosen);
  const PortRef peer = port_peer_[fp];
  schedule(now + cfg_.flying_time_ns, EventKind::kHeadArrive, peer.device,
           peer.port, vl_id, pkt);
  schedule(now + wire, EventKind::kTailOut, dev, port, vl_id, pkt);
  // The packet's input-side slot on *this* switch drains as the tail leaves
  // (at now + wire); the credit then flies back upstream.  Scheduled here --
  // not in on_tail_out -- because rt_[pkt] is re-pointed at the downstream
  // switch as soon as the head lands there.
  if (rt_[pkt].in_port != 0) {
    const PortRef up =
        subnet_->fabric().fabric().peer_of(dev, rt_[pkt].in_port);
    // The packet may have entered through a link that has since died (it
    // was already buffered here, so it survives and forwards normally);
    // the freed input slot then has no upstream to credit.
    if (up.valid()) {
      schedule(now + wire + cfg_.flying_time_ns, EventKind::kCreditArrive,
               up.device, up.port, vl_id);
    } else {
      MLID_ASSERT(sm_ != nullptr, "unconnected in-port without a live SM");
    }
  }
}

// --- switch traversal -----------------------------------------------------------

void Simulation::on_head_arrive(DeviceId dev, PortId port, VlId vl,
                                PacketId pkt, SimTime now) {
  if (!port_connected_[port_index(dev, port)]) {
    // The link died while the packet was on the wire.  Its tail-out on the
    // transmitting side still cleans up that output slot; here the packet
    // simply never lands.
    trace_event(pkt, now, TracePoint::kDropped, dev, port, vl,
                DropReason::kDeadLink);
    count_drop(DropReason::kDeadLink, pkt, dev, now);
    retire_packet(pkt);
    return;
  }
  trace_event(pkt, now, TracePoint::kHeadArrive, dev, port, vl);
  const Device& device = subnet_->fabric().fabric().device(dev);
  if (device.kind() == DeviceKind::kEndnode) {
    // Tail arrives one serialization time later; deliver then.
    schedule(now + wire_ns(pkt), EventKind::kDeliver, dev, port, vl, pkt);
    return;
  }
  rt_[pkt].dev = dev;
  rt_[pkt].in_port = port;
  schedule(now + cfg_.routing_delay_ns, EventKind::kRouted, dev, port, vl,
           pkt);
}

PortId Simulation::pick_output(DeviceId dev, const Device& device, VlId vl,
                               PortId deterministic) const {
  if (!adaptive_ || first_up_port_[dev] == 0 ||
      deterministic < first_up_port_[dev]) {
    // Deterministic policy, or a down entry: down entries are unique (the
    // destination sits in exactly one subtree); only upward forwarding has
    // freedom a policy may exploit.
    return deterministic;
  }
  // Any connected up port is a minimal next hop: hand the policy every
  // candidate with its local occupancy signals and let it choose.
  uplink_scratch_.clear();
  for (PortId port = first_up_port_[dev]; port <= device.num_ports();
       ++port) {
    const std::size_t fp = port_index(dev, port);
    if (!port_connected_[fp]) continue;
    const std::size_t vs = vl_index(fp, vl);
    uplink_scratch_.push_back(UpPortCandidate{
        port, vl_free_slots_[vs], vl_credits_[vs],
        vl_fecn_signal_.empty() ? 0u : vl_fecn_signal_[vs]});
  }
  const PortId out = fwd_policy_->select_uplink(uplink_scratch_, deterministic);
  // The eligibility contract: a policy may only redirect onto another
  // connected up port of the same switch (anything else could loop or
  // forward into the void).
  MLID_ASSERT(out >= first_up_port_[dev] && out <= device.num_ports() &&
                  port_connected_[port_index(dev, out)],
              "forwarding policy must return a connected up-phase candidate");
  return out;
}

void Simulation::on_routed(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                           SimTime now) {
  const Device& device = subnet_->fabric().fabric().device(dev);
  const CompactLft& lft = live_lft(device.switch_id);
  const Lid dlid = pool_.get(pkt).dlid;
  const PortId fwd = lft.find(dlid);
  if (fwd == CompactLft::kNoEntry) {
    // No entry at all: a routing hole.  On an intact run the counter
    // doubles as a routing-bug detector; after a partitioning failure it
    // counts destinations the repaired tables legitimately cannot reach.
    trace_event(pkt, now, TracePoint::kDropped, dev, port, vl,
                DropReason::kUnroutable);
    count_drop(DropReason::kUnroutable, pkt, dev, now);
    return_credit_upstream(dev, port, vl, now);
    retire_packet(pkt);
    return;
  }
  if (!device.port_connected(fwd)) {
    // The entry points at a dead port: the table is stale relative to the
    // physical fabric.  With a live SM this is the convergence window;
    // with offline tables it is the permanent cost of not re-sweeping.
    trace_event(pkt, now, TracePoint::kDropped, dev, port, vl,
                DropReason::kConvergence);
    count_drop(DropReason::kConvergence, pkt, dev, now);
    return_credit_upstream(dev, port, vl, now);
    retire_packet(pkt);
    return;
  }
  const PortId out = pick_output(dev, device, vl, fwd);
  ++pool_.get(pkt).hops;
  const std::size_t vs = vl_index(port_index(dev, out), vl);
  if (cc_on() && vl_cc_stall_since_[vs] < 0) {
    // FECN depth marking: the backlog this packet joins at its output
    // (granted queue + crossbar waiters), counting the packet itself.
    // Only at the congestion tree's *root*: a backlog that persists while
    // the output is draining at link rate (not credit-stalled) means the
    // sink itself is oversubscribed.  Credit-stalled outputs upstream are
    // victims of that root; marking there would throttle innocent flows
    // that merely share a link with the tree (they get the stall-mark
    // path instead, which only fires on the long-blocked head packet).
    const std::size_t depth = static_cast<std::size_t>(vl_q_[vs].size) +
                              (vl_tx_pkt_[vs] != kInvalidPacket ? 1 : 0) +
                              vl_wait_[vs].size + 1;
    if (depth >= cfg_.cc.fecn_threshold_pkts) {
      mark_fecn(pkt, /*stall_mark=*/false, dev, out, vl);
    }
  }
  if (vl_free_slots_[vs] > 0) {
    grant_output(dev, out, vl, pkt, now);
  } else {
    pool_.push_back(vl_wait_[vs], pkt);
    if (cfg_.telemetry) note_queue_depth(dev, out, vl);
  }
}

void Simulation::grant_output(DeviceId dev, PortId out, VlId vl, PacketId pkt,
                              SimTime now) {
  const std::size_t vs = vl_index(port_index(dev, out), vl);
  MLID_ASSERT(vl_free_slots_[vs] > 0, "granting without a free output slot");
  --vl_free_slots_[vs];
  pool_.push_back(vl_q_[vs], pkt);
  rt_[pkt].out_port = out;
  if (cfg_.telemetry) note_queue_depth(dev, out, vl);
  try_tx(dev, out, now);
}

void Simulation::note_queue_depth(DeviceId dev, PortId out, VlId vl) {
  const std::size_t vs = vl_index(port_index(dev, out), vl);
  const std::uint32_t depth = vl_q_[vs].size +
                              (vl_tx_pkt_[vs] != kInvalidPacket ? 1u : 0u) +
                              vl_wait_[vs].size;
  vl_cold_[vs].peak_queue_pkts =
      std::max(vl_cold_[vs].peak_queue_pkts, depth);
}

void Simulation::return_credit_upstream(DeviceId dev, PortId in_port, VlId vl,
                                        SimTime now) {
  const PortRef up = subnet_->fabric().fabric().peer_of(dev, in_port);
  if (!up.valid()) {
    // The in-port's link died after this packet was buffered: the credit
    // has nowhere to go (revive_port resets counters on recovery).
    MLID_ASSERT(sm_ != nullptr, "credit return on an unconnected port");
    return;
  }
  schedule(now + cfg_.flying_time_ns, EventKind::kCreditArrive, up.device,
           up.port, vl);
}

void Simulation::on_tail_out(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                             SimTime now) {
  const std::size_t fp = port_index(dev, port);
  const std::size_t vs = vl_index(fp, vl);
  MLID_ASSERT(vl_tx_pkt_[vs] == pkt,
              "tail-out for a packet that is not the transmitting head");
  vl_tx_pkt_[vs] = kInvalidPacket;
  ++vl_free_slots_[vs];

  // The output slot freed: admit the longest-waiting routed packet, if any.
  PacketQueue& waitq = vl_wait_[vs];
  if (!waitq.empty()) {
    const PacketId next = pool_.pop_front(waitq);
    grant_output(dev, port, vl, next, now);
  }

  PacketRt& rt = rt_[pkt];
  if (--rt.wire_refs == 0 && rt.retired) pool_.release(pkt);
  // The packet's tail has left this device.  The matching upstream credit
  // was already scheduled at transmit time (see try_tx); the only
  // input-side resource handled here is the NIC's source queue.
  const Device& device = subnet_->fabric().fabric().device(dev);
  if (device.kind() == DeviceKind::kEndnode) {
    try_source_pull(device.node_id, vl, now);
  }
  try_tx(dev, port, now);
}

// --- delivery --------------------------------------------------------------------

void Simulation::on_deliver(DeviceId dev, PortId port, VlId vl, PacketId pkt,
                            SimTime now) {
  Packet& p = pool_.get(pkt);
  MLID_ASSERT(p.delivered_at < 0, "packet delivered twice");
  MLID_ASSERT(subnet_->fabric().node_device(subnet_->node_of(p.dlid)) == dev,
              "packet delivered to a node that does not own its DLID");
  p.delivered_at = now;
  ++result_.packets_delivered;
  DeliveryStats& d = delivery_;
  if (now >= cfg_.warmup_ns && now < cfg_.end_time()) {
    ++result_.packets_measured;
    const SimTime lat = now - p.generated_at;
    d.latency.add(lat);
    d.latency_hist.add(static_cast<double>(lat));
    d.net_latency.add(now - p.injected_at);
    d.hops.add(p.hops);
    d.latency_per_vl[vl].add(lat);
    d.bytes_per_node[p.dst] += p.size_bytes;
    if (traffic_.config().kind == TrafficKind::kCentric) {
      const bool hot = p.dst == traffic_.config().hot_node;
      (hot ? d.hot : d.victim).add(lat);
      (hot ? d.hot_hist : d.victim_hist).add(static_cast<double>(lat));
    }
    if (!d.tenant_latency.empty()) {
      const auto t = static_cast<std::size_t>(tenant_of(p.dst));
      d.tenant_latency[t].add(lat);
      d.tenant_bytes[t] += p.size_bytes;
    }
    if (cfg_.telemetry) {
      d.latency_log2.add(static_cast<double>(lat));
      d.queue_log2.add(static_cast<double>(p.injected_at - p.generated_at));
      d.network_log2.add(static_cast<double>(now - p.injected_at));
      d.latency_log2_per_vl[vl].add(static_cast<double>(lat));
    }
  }
  if (p.msg != kNoMessage) {
    MLID_ASSERT(msgs_[p.msg] > 0, "message over-delivered");
    if (--msgs_[p.msg] == 0) {
      d.msg_latency.add(now);  // all bursts start at 0
      if (cfg_.telemetry) d.msg_latency_hist.add(static_cast<double>(now));
    }
  }
  d.last = std::max(d.last, now);
  if (cc_on() && p.fecn) {
    // BECN return: the destination HCA echoes the mark to the source as a
    // small control packet, modeled as a delayed event like SM traps.
    ++cc_becn_sent_;
    ++cc_nodes_[p.dst].stats.becn_sent;
    schedule(now + cfg_.cc.becn_delay_ns, EventKind::kBecnArrive, p.src, 0, 0,
             static_cast<PacketId>(p.dst));
  }
  trace_event(pkt, now, TracePoint::kDelivered, dev, port, vl);
  // The destination endnode consumes at link rate: its input slot frees as
  // the tail lands, so the credit travels back immediately.
  return_credit_upstream(dev, port, vl, now);
  retire_packet(pkt);
}

void Simulation::DeliveryStats::merge(const DeliveryStats& other) {
  const auto merge_each = [](auto& into, const auto& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i].merge(from[i]);
  };
  const auto add_each = [](auto& into, const auto& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
  };
  latency.merge(other.latency);
  net_latency.merge(other.net_latency);
  hops.merge(other.hops);
  latency_hist.merge(other.latency_hist);
  merge_each(latency_per_vl, other.latency_per_vl);
  add_each(bytes_per_node, other.bytes_per_node);
  victim.merge(other.victim);
  hot.merge(other.hot);
  victim_hist.merge(other.victim_hist);
  hot_hist.merge(other.hot_hist);
  merge_each(tenant_latency, other.tenant_latency);
  add_each(tenant_bytes, other.tenant_bytes);
  latency_log2.merge(other.latency_log2);
  queue_log2.merge(other.queue_log2);
  network_log2.merge(other.network_log2);
  merge_each(latency_log2_per_vl, other.latency_log2_per_vl);
  last = std::max(last, other.last);
  msg_latency.merge(other.msg_latency);
  msg_latency_hist.merge(other.msg_latency_hist);
}

// --- congestion control ------------------------------------------------------

void Simulation::mark_fecn(PacketId pkt, bool stall_mark, DeviceId dev,
                           PortId port, VlId vl) {
  Packet& p = pool_.get(pkt);
  if (p.fecn) return;  // one mark per packet, whichever trigger fires first
  p.fecn = true;
  ++cc_fecn_marked_;
  if (stall_mark) {
    ++cc_fecn_stall_marks_;
  } else {
    ++cc_fecn_depth_marks_;
  }
  if (!vl_fecn_signal_.empty()) {
    // The adaptive policy's congestion-root signal (independent of the
    // telemetry counter below, so policy behaviour does not change with
    // observability flags).
    ++vl_fecn_signal_[vl_index(port_index(dev, port), vl)];
  }
  if (cfg_.telemetry) {
    ++vl_cold_[vl_index(port_index(dev, port), vl)].fecn_marks;
  }
}

void Simulation::on_becn(NodeId src, NodeId dst, SimTime now) {
  CcNode& cn = cc_nodes_[src];
  ++cn.stats.becn_received;
  const std::uint16_t idx = cct_[src].on_becn(dst);
  cn.stats.peak_cct_index = std::max(cn.stats.peak_cct_index, idx);
  ++cc_index_hist_[idx];
  if (!cn.timer_armed) {
    cn.timer_armed = true;
    schedule(now + cfg_.cc.timer_ns, EventKind::kCctTimer, src);
  }
}

void Simulation::on_cct_timer(NodeId node, SimTime now) {
  ++cc_timer_fires_;
  if (cct_[node].decay()) {
    schedule(now + cfg_.cc.timer_ns, EventKind::kCctTimer, node);
  } else {
    cc_nodes_[node].timer_armed = false;
  }
}

void Simulation::on_cc_release(NodeId node, SimTime now) {
  cc_nodes_[node].release_scheduled = false;
  for (int vl = 0; vl < cfg_.num_vls; ++vl) {
    try_source_pull(node, static_cast<VlId>(vl), now);
  }
}

CcSummary Simulation::collect_cc() const {
  CcSummary cc;
  if (!cc_on()) return cc;
  cc.enabled = true;
  cc.fecn_marked = cc_fecn_marked_;
  cc.fecn_depth_marks = cc_fecn_depth_marks_;
  cc.fecn_stall_marks = cc_fecn_stall_marks_;
  cc.becn_sent = cc_becn_sent_;
  cc.cct_timer_fires = cc_timer_fires_;
  cc.cct_index_hist = cc_index_hist_;
  for (const CcNode& cn : cc_nodes_) {
    const CcNodeStats& s = cn.stats;
    cc.becn_received += s.becn_received;
    cc.throttled_pkts += s.throttled_pkts;
    cc.throttled_ns_total += s.throttled_ns;
    cc.max_node_throttled_ns =
        std::max(cc.max_node_throttled_ns, s.throttled_ns);
    cc.peak_cct_index = std::max(cc.peak_cct_index, s.peak_cct_index);
  }
  return cc;
}

std::vector<CcNodeStats> Simulation::cc_node_stats() const {
  std::vector<CcNodeStats> stats;
  stats.reserve(cc_nodes_.size());
  for (const CcNode& cn : cc_nodes_) stats.push_back(cn.stats);
  return stats;
}

void Simulation::trace_event(PacketId pkt, SimTime now, TracePoint point,
                             DeviceId dev, PortId port, VlId vl,
                             DropReason drop) {
  const std::int32_t idx = rt_[pkt].trace;
  if (idx < 0) return;
  // Pooled: one arena append instead of growing a per-record vector on the
  // hot path.  materialize_traces() distributes at run end.
  trace_arena_.push_back(
      PendingTraceEvent{idx, TraceEvent{now, point, dev, port, vl, drop}});
}

void Simulation::materialize_traces() {
  if (trace_arena_.empty()) return;
  for (const PendingTraceEvent& pending : trace_arena_) {
    traces_[static_cast<std::size_t>(pending.rec)].events.push_back(
        pending.ev);
  }
  trace_arena_.clear();
  trace_arena_.shrink_to_fit();
}

// --- time-resolved observability ---------------------------------------------
// All passive: these read counters and queue sizes but never schedule
// events, draw random numbers or mutate engine state, which is what keeps
// results bit-identical with the instrumentation on or off.

void Simulation::collect_sample_gauges(TimelineSample& s) const {
  const Fabric& g = subnet_->fabric().fabric();
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    if (device_shard(dev) != shard_.shard_id) continue;
    for (PortId port = 1; port <= g.device(dev).num_ports(); ++port) {
      const std::size_t fp = port_index(dev, port);
      if (!port_connected_[fp]) continue;
      for (std::size_t vl = 0; vl < vls_; ++vl) {
        const std::size_t vs = vl_index(fp, vl);
        const std::uint32_t depth =
            vl_q_[vs].size + (vl_tx_pkt_[vs] != kInvalidPacket ? 1u : 0u) +
            vl_wait_[vs].size;
        s.queued_pkts += depth;
        s.max_queue_depth = std::max(s.max_queue_depth, depth);
        // The same structural condition the credit-stall telemetry clocks,
        // read directly so the sample does not depend on cfg_.telemetry.
        if (vl_q_[vs].size != 0 && vl_tx_pkt_[vs] == kInvalidPacket &&
            vl_credits_[vs] == 0) {
          ++s.stalled_vls;
        }
      }
    }
  }
  if (cc_on()) {
    for (NodeId node = 0; node < cct_.size(); ++node) {
      if (!owns_node(node)) continue;
      const CongestionControlTable& cct = cct_[node];
      if (!cct.any_active()) continue;
      ++s.cct_active_nodes;
      s.peak_cct_index = std::max(s.peak_cct_index, cct.max_index());
    }
  }
}

void Simulation::record_flight(const Event& e) {
  const std::int64_t owner = flight_device_of(e);
  if (owner < 0) return;
  const auto dev = static_cast<DeviceId>(owner);
  const std::uint32_t depth = cfg_.flight_recorder_depth;
  const std::size_t base = static_cast<std::size_t>(dev) * depth;
  flight_ring_[base + flight_pos_[dev]] =
      FlightEvent{e.time, e.kind, e.dev, e.pkt, e.port, e.vl};
  flight_pos_[dev] = (flight_pos_[dev] + 1) % depth;
  flight_len_[dev] = std::min(flight_len_[dev] + 1, depth);
  last_flight_dev_ = dev;
}

std::int64_t Simulation::flight_device_of(const Event& e) const {
  switch (e.kind) {
    case EventKind::kGenerate:
    case EventKind::kBecnArrive:
    case EventKind::kCctTimer:
    case EventKind::kCcRelease:
      // Node-scoped: file under the node's NIC device.
      return subnet_->fabric().node_device(static_cast<NodeId>(e.dev));
    case EventKind::kSweepDone:
    case EventKind::kLftProgram:
      return -1;  // SM-global; no single device owns them
    default:
      return e.dev;
  }
}

void Simulation::record_control(const Event& e) {
  switch (e.kind) {
    case EventKind::kLinkFail:
      control_trace_.push_back(
          {e.time, ControlPoint::kLinkFail, e.dev, 0, e.port});
      break;
    case EventKind::kLinkRecover:
      // Endpoint B travels in the pkt (device) / vl (port) payload fields.
      control_trace_.push_back({e.time, ControlPoint::kLinkRecover, e.dev,
                                static_cast<std::uint32_t>(e.pkt), e.port});
      break;
    case EventKind::kTrap:
      control_trace_.push_back(
          {e.time, ControlPoint::kTrap, e.dev, 0, e.port});
      break;
    case EventKind::kSweepDone:
      control_trace_.push_back({e.time, ControlPoint::kSweepDone, e.dev, 0, 0});
      break;
    case EventKind::kLftProgram:
      control_trace_.push_back({e.time, ControlPoint::kLftProgram, e.dev,
                                static_cast<std::uint32_t>(e.pkt), 0});
      break;
    case EventKind::kBecnArrive:
      control_trace_.push_back({e.time, ControlPoint::kBecn, e.dev,
                                static_cast<std::uint32_t>(e.pkt), 0});
      break;
    case EventKind::kCctTimer:
      control_trace_.push_back({e.time, ControlPoint::kCctTimer, e.dev, 0, 0});
      break;
    case EventKind::kCcRelease:
      control_trace_.push_back(
          {e.time, ControlPoint::kCcRelease, e.dev, 0, 0});
      break;
    default:
      break;  // data-plane events are the packet traces' job
  }
}

FlightRecorderDump Simulation::render_flight_ring(DeviceId dev, SimTime at,
                                                  std::string cause) const {
  FlightRecorderDump dump;
  dump.at = at;
  dump.dev = dev;
  dump.device_name = subnet_->fabric().fabric().device(dev).name();
  dump.cause = std::move(cause);
  const std::uint32_t depth = cfg_.flight_recorder_depth;
  const std::size_t base = static_cast<std::size_t>(dev) * depth;
  const std::uint32_t len = flight_len_[dev];
  dump.events.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    const std::uint32_t slot = (flight_pos_[dev] + depth - len + i) % depth;
    dump.events.push_back(flight_ring_[base + slot]);
  }
  return dump;
}

void Simulation::freeze_flight_dump(DeviceId dev, SimTime at,
                                    std::string cause) {
  flight_dump_ = render_flight_ring(dev, at, std::move(cause));
  std::cerr << to_string(flight_dump_);
}

void Simulation::dump_last_flight() const {
  if (flight_ring_.empty() || last_flight_dev_ == kInvalidDevice ||
      flight_len_[last_flight_dev_] == 0) {
    return;
  }
  const DeviceId dev = last_flight_dev_;
  const std::uint32_t depth = cfg_.flight_recorder_depth;
  const std::uint32_t newest = (flight_pos_[dev] + depth - 1) % depth;
  const SimTime at =
      flight_ring_[static_cast<std::size_t>(dev) * depth + newest].time;
  std::cerr << to_string(render_flight_ring(dev, at, "contract violation"));
}

std::vector<LinkLoad> Simulation::link_loads() const {
  std::vector<LinkLoad> loads;
  const Fabric& g = subnet_->fabric().fabric();
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    for (PortId port = 1; port <= g.device(dev).num_ports(); ++port) {
      const std::size_t fp = port_index(dev, port);
      if (!port_connected_[fp]) continue;
      loads.push_back(LinkLoad{
          dev, port, port_packets_tx_[fp],
          static_cast<double>(port_busy_in_window_[fp]) /
              static_cast<double>(cfg_.measure_ns)});
    }
  }
  return loads;
}

// --- memory accounting -------------------------------------------------------

std::size_t Simulation::memory_footprint() const noexcept {
  const auto vec_bytes = [](const auto& v) noexcept {
    using T = typename std::remove_reference_t<decltype(v)>::value_type;
    return v.capacity() * sizeof(T);
  };
  std::size_t total = pool_.memory_bytes() + vec_bytes(rt_);
  total += vec_bytes(port_base_) + vec_bytes(port_peer_) +
           vec_bytes(port_busy_until_) + vec_bytes(port_busy_in_window_) +
           vec_bytes(port_packets_tx_) + vec_bytes(port_wrr_vl_) +
           vec_bytes(port_wrr_budget_) + vec_bytes(port_connected_);
  total += vec_bytes(vl_q_) + vec_bytes(vl_wait_) + vec_bytes(vl_free_slots_) +
           vec_bytes(vl_credits_) + vec_bytes(vl_tx_pkt_) +
           vec_bytes(vl_cc_stall_since_) + vec_bytes(vl_cold_);
  total += vec_bytes(src_q_) + vec_bytes(scratch_) + vec_bytes(nodes_) +
           vec_bytes(first_up_port_) + vec_bytes(vl_rng_);
  // Policy state (empty under the default deterministic/none pair).
  total += vec_bytes(uplink_scratch_) + vec_bytes(vl_fecn_signal_);
  // CC state (next_allowed is the O(nodes^2) part; CCT internals are
  // approximated by their object size).
  total += vec_bytes(cc_nodes_) + vec_bytes(cct_) + vec_bytes(cc_index_hist_);
  for (const CcNode& cn : cc_nodes_) total += vec_bytes(cn.next_allowed);
  total += vec_bytes(timeline_.samples) + vec_bytes(flight_ring_) +
           vec_bytes(flight_pos_) + vec_bytes(flight_len_);
  total += vec_bytes(trace_arena_) + vec_bytes(traces_) + vec_bytes(msgs_);
  total += vec_bytes(delivery_.latency_per_vl) +
           vec_bytes(delivery_.bytes_per_node);
  return total;
}

// --- main loop ---------------------------------------------------------------------

void Simulation::observe(const Event& e) {
  if (!flight_ring_.empty()) record_flight(e);
  if (cfg_.trace_control) record_control(e);
}

void Simulation::dispatch(const Event& e) {
  observe(e);
  switch (e.kind) {
    case EventKind::kGenerate:
      on_generate(static_cast<NodeId>(e.dev), e.time);
      break;
    case EventKind::kHeadArrive:
      on_head_arrive(e.dev, e.port, e.vl, e.pkt, e.time);
      break;
    case EventKind::kRouted:
      on_routed(e.dev, e.port, e.vl, e.pkt, e.time);
      break;
    case EventKind::kTailOut:
      on_tail_out(e.dev, e.port, e.vl, e.pkt, e.time);
      break;
    case EventKind::kCreditArrive: {
      const std::size_t fp = port_index(e.dev, e.port);
      if (!port_connected_[fp]) break;  // credit for a dead port: void
      const std::size_t vs = vl_index(fp, e.vl);
      VlTelemetry& cold = vl_cold_[vs];
      if (cold.stall_since >= 0) {
        cold.credit_stall_ns += e.time - cold.stall_since;
        cold.stall_since = -1;
      }
      if (vl_credits_[vs] < cfg_.in_buf_pkts) {
        ++vl_credits_[vs];
      } else {
        // Only possible after a fail/recover cycle: a packet that crossed
        // the link before the failure returns its credit to the revived
        // (already fully credited) port.  The stale credit is void.
        MLID_ASSERT(sm_ != nullptr, "credit overflow without a live SM");
      }
      try_tx(e.dev, e.port, e.time);
      break;
    }
    case EventKind::kDeliver:
      on_deliver(e.dev, e.port, e.vl, e.pkt, e.time);
      break;
    case EventKind::kBecnArrive:
      on_becn(static_cast<NodeId>(e.dev), static_cast<NodeId>(e.pkt), e.time);
      break;
    case EventKind::kCctTimer:
      on_cct_timer(static_cast<NodeId>(e.dev), e.time);
      break;
    case EventKind::kCcRelease:
      on_cc_release(static_cast<NodeId>(e.dev), e.time);
      break;
    default:
      MLID_ASSERT(false, "control-plane events dispatch through the driver");
  }
}

void Simulation::drain_until(SimTime end) {
  events_.drain_until(end, [this](const Event& e) { dispatch(e); });
}

SimResult Simulation::run() {
  return Driver(std::span(this, 1), kSimTimeNever).run();
}

BurstResult Simulation::run_to_completion() {
  return Driver(std::span(this, 1), kSimTimeNever).run_to_completion();
}

BurstResult Simulation::finalize_burst(std::uint64_t events_processed,
                                       std::uint64_t events_scheduled) {
  BurstResult burst;
  const DeliveryStats& d = delivery_;
  burst.makespan_ns = d.last;
  burst.avg_message_latency_ns = d.msg_latency.mean();
  burst.max_message_latency_ns = static_cast<double>(d.msg_latency.max());
  burst.messages = msgs_.size();
  burst.packets = result_.packets_generated;
  burst.total_bytes = burst_bytes_;
  burst.events_processed = events_processed;
  burst.events_scheduled = events_scheduled;
  burst.cc = collect_cc();
  if (cfg_.telemetry) {
    burst.telemetry = true;
    burst.p50_message_latency_ns = d.msg_latency_hist.quantile(0.50);
    burst.p95_message_latency_ns = d.msg_latency_hist.quantile(0.95);
    burst.p99_message_latency_ns = d.msg_latency_hist.quantile(0.99);
    burst.message_latency_hist = d.msg_latency_hist;
    burst.link_summary =
        finish_link_telemetry(d.last, std::max<SimTime>(d.last, 1));
  }
  return burst;
}

LinkSummary Simulation::finish_link_telemetry(SimTime end, SimTime window_ns) {
  LinkSummary summary;
  if (!cfg_.telemetry) return summary;
  const Fabric& g = subnet_->fabric().fabric();
  OnlineStats util;
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    for (PortId port = 1; port <= g.device(dev).num_ports(); ++port) {
      const std::size_t fp = port_index(dev, port);
      if (!port_connected_[fp]) continue;
      ++summary.links;
      util.add(static_cast<double>(port_busy_in_window_[fp]) /
               static_cast<double>(window_ns));
      for (std::size_t vl = 0; vl < vls_; ++vl) {
        VlTelemetry& slot = vl_cold_[vl_index(fp, vl)];
        if (slot.stall_since >= 0) {  // still blocked when the run ended
          slot.credit_stall_ns += end - slot.stall_since;
          slot.stall_since = -1;
        }
        summary.total_packets += slot.pkts_tx;
        summary.total_bytes += slot.bytes_tx;
        summary.total_credit_stall_ns +=
            static_cast<std::uint64_t>(slot.credit_stall_ns);
        summary.max_credit_stall_ns =
            std::max(summary.max_credit_stall_ns,
                     static_cast<std::uint64_t>(slot.credit_stall_ns));
        summary.max_queue_depth_pkts =
            std::max(summary.max_queue_depth_pkts, slot.peak_queue_pkts);
        summary.total_fecn_marks += slot.fecn_marks;
      }
    }
  }
  summary.mean_utilization = util.mean();
  summary.max_utilization = util.max();
  return summary;
}

std::vector<LinkStats> Simulation::link_stats() const {
  MLID_EXPECT(cfg_.telemetry,
              "link_stats() needs SimConfig::telemetry enabled");
  // Utilization is relative to the same window finish_link_telemetry used:
  // the measurement window in open-loop mode, the makespan for bursts.
  const auto window = static_cast<double>(
      burst_ ? std::max<SimTime>(delivery_.last, 1) : cfg_.measure_ns);
  std::vector<LinkStats> stats;
  const Fabric& g = subnet_->fabric().fabric();
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    for (PortId port = 1; port <= g.device(dev).num_ports(); ++port) {
      const std::size_t fp = port_index(dev, port);
      if (!port_connected_[fp]) continue;
      LinkStats link;
      link.dev = dev;
      link.port = port;
      link.busy_ns = port_busy_in_window_[fp];
      link.utilization =
          static_cast<double>(port_busy_in_window_[fp]) / window;
      link.vls.reserve(vls_);
      for (std::size_t v = 0; v < vls_; ++v) {
        const VlTelemetry& slot = vl_cold_[vl_index(fp, v)];
        VlLinkStats vl;
        vl.packets_tx = slot.pkts_tx;
        vl.bytes_tx = slot.bytes_tx;
        vl.credit_stall_ns = slot.credit_stall_ns;
        vl.peak_queue_pkts = slot.peak_queue_pkts;
        vl.fecn_marks = slot.fecn_marks;
        link.packets_tx += vl.packets_tx;
        link.bytes_tx += vl.bytes_tx;
        link.credit_stall_ns += vl.credit_stall_ns;
        link.peak_queue_pkts =
            std::max(link.peak_queue_pkts, vl.peak_queue_pkts);
        link.fecn_marks += vl.fecn_marks;
        link.vls.push_back(vl);
      }
      stats.push_back(std::move(link));
    }
  }
  return stats;
}

void Simulation::check_invariants() const {
  const Fabric& g = subnet_->fabric().fabric();
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    if (device_shard(dev) != shard_.shard_id) continue;
    for (PortId port = 1; port <= g.device(dev).num_ports(); ++port) {
      const std::size_t fp = port_index(dev, port);
      if (!port_connected_[fp]) continue;
      for (std::size_t vl = 0; vl < vls_; ++vl) {
        const std::size_t vs = vl_index(fp, vl);
        const int occupied =
            static_cast<int>(vl_q_[vs].size) +
            (vl_tx_pkt_[vs] != kInvalidPacket ? 1 : 0);
        MLID_EXPECT(vl_free_slots_[vs] >= 0 &&
                        vl_free_slots_[vs] + occupied == cfg_.out_buf_pkts,
                    "output slot accounting out of balance");
        MLID_EXPECT(vl_credits_[vs] >= 0 &&
                        vl_credits_[vs] <= cfg_.in_buf_pkts,
                    "credit counter out of range");
        MLID_EXPECT(vl_tx_pkt_[vs] == kInvalidPacket ||
                        pool_.is_live(vl_tx_pkt_[vs]),
                    "transmission in progress without a live head packet");
      }
    }
  }
}

SimResult Simulation::finalize_open_loop(std::uint64_t events_processed,
                                         std::uint64_t events_scheduled) {
  const SimTime end = cfg_.end_time();
  result_.timeline = timeline_;
  result_.profile = profile_;

  result_.offered_load = offered_load_;
  result_.sim_end_ns = end;
  result_.events_processed = events_processed;
  result_.events_scheduled = events_scheduled;
  const DeliveryStats& d = delivery_;
  result_.avg_latency_ns = d.latency.mean();
  result_.avg_network_latency_ns = d.net_latency.mean();
  result_.p50_latency_ns = d.latency_hist.quantile(0.50);
  result_.p95_latency_ns = d.latency_hist.quantile(0.95);
  result_.p99_latency_ns = d.latency_hist.quantile(0.99);
  result_.max_latency_ns = static_cast<double>(d.latency.max());
  result_.avg_hops = d.hops.mean();

  OnlineStats util;
  for (std::size_t fp = 0; fp < port_connected_.size(); ++fp) {
    if (!port_connected_[fp]) continue;
    util.add(static_cast<double>(port_busy_in_window_[fp]) /
             static_cast<double>(cfg_.measure_ns));
  }
  result_.mean_link_utilization = util.mean();
  result_.max_link_utilization = util.max();
  result_.link_summary = finish_link_telemetry(end, cfg_.measure_ns);
  result_.latency_log2_hist = d.latency_log2;
  result_.queue_log2_hist = d.queue_log2;
  result_.network_log2_hist = d.network_log2;
  result_.latency_log2_per_vl = d.latency_log2_per_vl;

  result_.delivered_per_vl.clear();
  result_.avg_latency_per_vl_ns.clear();
  for (const ExactStats& s : d.latency_per_vl) {
    result_.delivered_per_vl.push_back(s.count());
    result_.avg_latency_per_vl_ns.push_back(s.mean());
  }
  std::uint64_t bytes_accepted = 0;
  double sum = 0.0, sum_sq = 0.0, lo = -1.0, hi = 0.0;
  for (const std::uint64_t bytes : d.bytes_per_node) {
    bytes_accepted += bytes;
    const auto rate = static_cast<double>(bytes) /
                      static_cast<double>(cfg_.measure_ns);
    sum += rate;
    sum_sq += rate * rate;
    if (lo < 0.0 || rate < lo) lo = rate;
    hi = std::max(hi, rate);
  }
  const auto num_nodes = static_cast<double>(d.bytes_per_node.size());
  result_.accepted_bytes_per_ns_per_node =
      static_cast<double>(bytes_accepted) /
      static_cast<double>(cfg_.measure_ns) / num_nodes;
  result_.jain_fairness_index =
      sum_sq > 0.0 ? sum * sum / (num_nodes * sum_sq) : 0.0;
  result_.min_node_accepted_bytes_per_ns = std::max(lo, 0.0);
  result_.max_node_accepted_bytes_per_ns = hi;

  if (!d.tenant_latency.empty()) {
    result_.tenants.resize(d.tenant_latency.size());
    double t_sum = 0.0, t_sum_sq = 0.0;
    for (std::size_t t = 0; t < d.tenant_latency.size(); ++t) {
      TenantStats& out = result_.tenants[t];
      out.delivered_pkts = d.tenant_latency[t].count();
      out.accepted_bytes_per_ns = static_cast<double>(d.tenant_bytes[t]) /
                                  static_cast<double>(cfg_.measure_ns);
      out.avg_latency_ns = d.tenant_latency[t].mean();
      t_sum += out.accepted_bytes_per_ns;
      t_sum_sq += out.accepted_bytes_per_ns * out.accepted_bytes_per_ns;
    }
    const auto n_tenants = static_cast<double>(d.tenant_latency.size());
    result_.tenant_jain_fairness_index =
        t_sum_sq > 0.0 ? t_sum * t_sum / (n_tenants * t_sum_sq) : 0.0;
  }

  if (traffic_.config().kind == TrafficKind::kCentric) {
    result_.victim_packets = d.victim.count();
    result_.hot_packets = d.hot.count();
    result_.victim_avg_latency_ns = d.victim.mean();
    result_.victim_p99_latency_ns = d.victim_hist.quantile(0.99);
    result_.hot_avg_latency_ns = d.hot.mean();
    result_.hot_p99_latency_ns = d.hot_hist.quantile(0.99);
  }
  // The delivery books balance: each accumulator partitions the measured
  // packets, so a shard merge that drops a field fails here.
  const std::uint64_t n = result_.packets_measured;
  std::uint64_t per_vl = 0, per_tenant = 0;
  for (const std::uint64_t c : result_.delivered_per_vl) per_vl += c;
  for (const TenantStats& t : result_.tenants) per_tenant += t.delivered_pkts;
  MLID_EXPECT(d.latency.count() == n && d.net_latency.count() == n &&
                  d.hops.count() == n && d.latency_hist.total() == n &&
                  per_vl == n && (result_.tenants.empty() || per_tenant == n) &&
                  (traffic_.config().kind != TrafficKind::kCentric ||
                   result_.victim_packets + result_.hot_packets == n),
              "delivery books out of balance");
  result_.cc = collect_cc();

  if (sm_ != nullptr) {
    const SmStats& sm = sm_->stats();
    result_.sm_traps = sm.traps_received;
    result_.sm_sweeps = sm.sweeps_completed;
    result_.sm_entries_programmed = sm.entries_programmed;
    result_.sm_switches_programmed = sm.switches_programmed;
    result_.sm_converged_ns = sm.converged_at;
    if (result_.first_fault_ns >= 0 &&
        sm.converged_at >= result_.first_fault_ns) {
      result_.reconvergence_ns = sm.converged_at - result_.first_fault_ns;
    }
  }
  return result_;
}

std::string Simulation::stall_report() const {
  std::ostringstream os;
  const Fabric& g = subnet_->fabric().fabric();
  for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
    for (PortId port = 1; port <= g.device(dev).num_ports(); ++port) {
      const std::size_t fp = port_index(dev, port);
      if (!port_connected_[fp]) continue;
      for (std::size_t vl = 0; vl < vls_; ++vl) {
        const std::size_t vs = vl_index(fp, vl);
        const PacketQueue& queue = vl_q_[vs];
        const PacketQueue& waitq = vl_wait_[vs];
        if (queue.empty() && waitq.empty()) continue;
        os << g.device(dev).name() << " port " << int(port) << " vl " << vl
           << ": out_q=" << queue.size
           << " started=" << (vl_tx_pkt_[vs] != kInvalidPacket)
           << " credits=" << vl_credits_[vs] << " waitq=" << waitq.size
           << " busy_until=" << port_busy_until_[fp] << "\n";
        for (PacketId pkt = queue.head; pkt != kInvalidPacket;
             pkt = pool_.next_of(pkt)) {
          os << "    out pkt " << pkt << " src=" << pool_.get(pkt).src
             << " dst=" << pool_.get(pkt).dst
             << " dlid=" << pool_.get(pkt).dlid
             << " in_port=" << int(rt_[pkt].in_port) << "\n";
        }
        for (PacketId pkt = waitq.head; pkt != kInvalidPacket;
             pkt = pool_.next_of(pkt)) {
          os << "    wait pkt " << pkt << " src=" << pool_.get(pkt).src
             << " dst=" << pool_.get(pkt).dst
             << " dlid=" << pool_.get(pkt).dlid
             << " in_port=" << int(rt_[pkt].in_port) << "\n";
        }
      }
    }
  }
  return os.str();
}

}  // namespace mlid
