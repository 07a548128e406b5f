// The binary-heap oracle for the engine's ladder EventQueue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace mlid {

/// A std::priority_queue over the engine's event order, O(log n) per
/// push/pop.  Same push signature and seq numbering as EventQueue, so one
/// event stream fed to both must pop identically (sim/event_queue_test.cpp);
/// bench/micro_components races the two.
class HeapEventQueue {
 public:
  void push(SimTime time, EventKind kind, DeviceId dev, PortId port = 0,
            VlId vl = 0, PacketId pkt = kInvalidPacket,
            std::uint64_t corder = 0) {
    heap_.push(Event{time, next_seq_++, corder, kind, dev, pkt, port, vl});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// The next event, or nullptr when empty.
  [[nodiscard]] const Event* peek() const {
    return heap_.empty() ? nullptr : &heap_.top();
  }

  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  std::priority_queue<Event, std::vector<Event>, detail::EventLater> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mlid
