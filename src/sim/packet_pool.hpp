// Pooled packet storage, one pool per engine shard.
//
// Packets are recycled through a freelist (no per-packet heap traffic on
// the hot path) and every slot carries a generation counter that is bumped
// on release: debug/checked builds verify each access against the live
// map, so a stale PacketId — the classic pool bug — trips a
// ContractViolation instead of silently reading a recycled slot.
//
// The pool also owns the intrusive `next` links that thread packets into
// PacketQueue FIFOs: a packet is in at most one queue at a time (a NIC
// source queue, an output VL's granted queue, or a crossbar wait queue),
// so one link per slot replaces the per-port deque storage that dominated
// per-port memory before the struct-of-arrays refactor.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "ib/packet.hpp"

namespace mlid {

/// Intrusive FIFO of pooled packets: 16 bytes per queue (head, tail,
/// count) instead of an 80-byte std::deque plus its heap blocks.  All
/// mutation goes through PacketPool, which owns the links.
struct PacketQueue {
  PacketId head = kInvalidPacket;
  PacketId tail = kInvalidPacket;
  std::uint32_t size = 0;

  [[nodiscard]] bool empty() const noexcept { return size == 0; }
};

class PacketPool {
 public:
  /// Allocates a slot (recycled from the freelist when possible).  The
  /// slot's Packet contents are whatever the caller assigns next; the
  /// intrusive link starts detached.
  [[nodiscard]] PacketId alloc() {
    PacketId pkt;
    if (!free_.empty()) {
      pkt = free_.back();
      free_.pop_back();
      MLID_ASSERT(!live_[pkt], "freelist entry still live");
    } else {
      pkt = static_cast<PacketId>(pkts_.size());
      pkts_.emplace_back();
      next_.push_back(kInvalidPacket);
      gen_.push_back(0);
      live_.push_back(0);
    }
    live_[pkt] = 1;
    next_[pkt] = kInvalidPacket;
    ++live_count_;
    return pkt;
  }

  /// Returns a slot to the freelist and bumps its generation, so checked
  /// builds catch any later access through a stale id.
  void release(PacketId pkt) {
    MLID_ASSERT(pkt < pkts_.size() && live_[pkt],
                "releasing a packet that is not live");
    live_[pkt] = 0;
    ++gen_[pkt];
    free_.push_back(pkt);
    --live_count_;
  }

  [[nodiscard]] Packet& get(PacketId pkt) {
    MLID_ASSERT(pkt < pkts_.size() && live_[pkt],
                "access to a released packet slot");
    return pkts_[pkt];
  }
  [[nodiscard]] const Packet& get(PacketId pkt) const {
    MLID_ASSERT(pkt < pkts_.size() && live_[pkt],
                "access to a released packet slot");
    return pkts_[pkt];
  }

  [[nodiscard]] bool is_live(PacketId pkt) const noexcept {
    return pkt < pkts_.size() && live_[pkt];
  }
  [[nodiscard]] std::uint32_t generation(PacketId pkt) const {
    MLID_ASSERT(pkt < gen_.size(), "packet id out of range");
    return gen_[pkt];
  }

  // --- intrusive FIFO ops ----------------------------------------------------
  void push_back(PacketQueue& q, PacketId pkt) {
    MLID_ASSERT(is_live(pkt), "queueing a released packet");
    next_[pkt] = kInvalidPacket;
    if (q.tail == kInvalidPacket) {
      q.head = pkt;
    } else {
      next_[q.tail] = pkt;
    }
    q.tail = pkt;
    ++q.size;
  }

  PacketId pop_front(PacketQueue& q) {
    MLID_ASSERT(q.size > 0, "pop from an empty packet queue");
    const PacketId pkt = q.head;
    q.head = next_[pkt];
    if (q.head == kInvalidPacket) q.tail = kInvalidPacket;
    next_[pkt] = kInvalidPacket;
    --q.size;
    return pkt;
  }

  /// Unlinks `pkt` given its predecessor (kInvalidPacket when `pkt` is the
  /// head) — the CC skip-scan removes the first non-gated packet from the
  /// middle of a source queue.
  void erase_after(PacketQueue& q, PacketId prev, PacketId pkt) {
    MLID_ASSERT(q.size > 0, "erase from an empty packet queue");
    if (prev == kInvalidPacket) {
      MLID_ASSERT(q.head == pkt, "predecessor mismatch");
      q.head = next_[pkt];
    } else {
      MLID_ASSERT(next_[prev] == pkt, "predecessor mismatch");
      next_[prev] = next_[pkt];
    }
    if (q.tail == pkt) q.tail = prev;
    next_[pkt] = kInvalidPacket;
    --q.size;
  }

  [[nodiscard]] PacketId next_of(PacketId pkt) const {
    MLID_ASSERT(pkt < next_.size(), "packet id out of range");
    return next_[pkt];
  }

  // --- accounting ------------------------------------------------------------
  [[nodiscard]] std::size_t slots() const noexcept { return pkts_.size(); }
  [[nodiscard]] std::size_t live_count() const noexcept { return live_count_; }
  /// Heap bytes owned by the pool (excluding sizeof(*this)).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return pkts_.capacity() * sizeof(Packet) +
           next_.capacity() * sizeof(PacketId) +
           gen_.capacity() * sizeof(std::uint32_t) +
           live_.capacity() * sizeof(char) +
           free_.capacity() * sizeof(PacketId);
  }

 private:
  std::vector<Packet> pkts_;
  std::vector<PacketId> next_;       ///< intrusive queue link per slot
  std::vector<std::uint32_t> gen_;   ///< bumped on release (stale-id guard)
  std::vector<char> live_;           ///< alloc/release pairing guard
  std::vector<PacketId> free_;
  std::size_t live_count_ = 0;
};

}  // namespace mlid
