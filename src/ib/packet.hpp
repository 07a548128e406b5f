// Packet model: the subset of the IBA Local Route Header the simulator and
// routing layers need (SLID/DLID, VL, payload size) plus bookkeeping.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mlid {

/// Dense packet handle into the simulator's packet pool.
using PacketId = std::uint32_t;
inline constexpr PacketId kInvalidPacket = 0xFFFFFFFFu;

/// Handle of the (multi-packet) message a segment belongs to.
using MessageId = std::uint32_t;
inline constexpr MessageId kNoMessage = 0xFFFFFFFFu;

/// One in-flight packet.  Plain value type; the simulator owns the pool.
struct Packet {
  Lid slid = kInvalidLid;
  Lid dlid = kInvalidLid;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  VlId vl = 0;
  std::uint32_t size_bytes = 0;

  SimTime generated_at = 0;   ///< entered the source queue
  SimTime injected_at = -1;   ///< head left the source NIC
  SimTime delivered_at = -1;  ///< tail received at the destination
  MessageId msg = kNoMessage; ///< owning message (burst workloads only)
  std::uint16_t hops = 0;     ///< switches traversed
  /// Deterministic generation order: (src << 32 | per-source counter) for
  /// open-loop packets, global segment index for burst workloads.  Stable
  /// across shard counts (unlike the pool PacketId), so it serves as the
  /// event tie-break key (Event::corder).
  std::uint64_t corder = 0;
  /// Forward Explicit Congestion Notification (CCA): set by a congested
  /// switch, echoed back to the source by the destination HCA as a BECN.
  /// The BECN itself travels as a control event (EventKind::kBecnArrive),
  /// like SM traps -- not as an in-band packet.
  bool fecn = false;
};

}  // namespace mlid
