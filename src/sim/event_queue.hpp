// Discrete-event core: deterministic time-ordered event queues.
//
// Ties on the timestamp are broken by event content -- (kind, dev, port, vl,
// corder), then insertion sequence -- so the dispatch order at each instant
// is a pure function of *what* is pending, not of which queue (or shard)
// scheduled it first.  That makes every run bit-reproducible for a given
// seed and identical across shard counts (asserted by the test suite).  Two
// interchangeable implementations sit behind the EventQueue facade, selected
// by SimConfig::event_queue:
//
//   * HeapEventQueue   -- a std::priority_queue binary heap, O(log n) per
//     push/pop.  The reference implementation.
//   * LadderEventQueue -- a calendar/ladder queue: an array of FIFO epoch
//     buckets covering the near time horizon plus a sorted overflow tier for
//     far-future events, amortized O(1) per event.  Pop order is *exactly*
//     the heap's total order -- every bucket is sorted once when
//     its epoch becomes current, and late pushes into the active epoch are
//     merge-inserted beyond the drain cursor -- so the two queues are
//     bit-interchangeable (asserted by sim/event_queue_test.cpp and
//     sim/queue_parity_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <string_view>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "ib/packet.hpp"

namespace mlid {

enum class EventKind : std::uint8_t {
  kGenerate,      ///< node creates the next packet (dev = node)
  kHeadArrive,    ///< packet head reaches (dev, port, vl)
  kRouted,        ///< routing delay elapsed; request an output
  kTailOut,       ///< packet tail finished leaving (dev, port, vl)
  kCreditArrive,  ///< one credit returned to out port (dev, port, vl)
  kTryTx,         ///< re-attempt link transmission on out port (dev, port)
  kDeliver,       ///< packet tail fully received by destination node
  // --- live Subnet Manager (only scheduled when an SM is attached) ----------
  kLinkFail,      ///< the link leaving (dev, port) dies now
  kLinkRecover,   ///< reconnect (dev, port) <-> (pkt as DeviceId, vl as PortId)
  kTrap,          ///< a trap from (dev, port) reaches the SM
  kSweepDone,     ///< the SM's re-sweep completes; compute + schedule programs
  kLftProgram,    ///< apply plan entry (dev as plan index, pkt as epoch)
  // --- congestion control (only scheduled when SimConfig::cc is enabled) ----
  kBecnArrive,    ///< a BECN reaches source HCA `dev` (pkt = destination node)
  kCctTimer,      ///< HCA `dev`'s CCT recovery-timer tick
  kCcRelease,     ///< HCA `dev`'s injection gate opens; retry source pulls
};

[[nodiscard]] constexpr std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kGenerate:
      return "generate";
    case EventKind::kHeadArrive:
      return "head-arrive";
    case EventKind::kRouted:
      return "routed";
    case EventKind::kTailOut:
      return "tail-out";
    case EventKind::kCreditArrive:
      return "credit-arrive";
    case EventKind::kTryTx:
      return "try-tx";
    case EventKind::kDeliver:
      return "deliver";
    case EventKind::kLinkFail:
      return "link-fail";
    case EventKind::kLinkRecover:
      return "link-recover";
    case EventKind::kTrap:
      return "trap";
    case EventKind::kSweepDone:
      return "sweep-done";
    case EventKind::kLftProgram:
      return "lft-program";
    case EventKind::kBecnArrive:
      return "becn-arrive";
    case EventKind::kCctTimer:
      return "cct-timer";
    case EventKind::kCcRelease:
      return "cc-release";
  }
  return "?";
}

struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;  ///< insertion order; the last tie-break
  /// Content-derived tie-break key, independent of which queue scheduled the
  /// event (packet generation order for data events, payload for BECNs).
  std::uint64_t corder = 0;
  EventKind kind = EventKind::kGenerate;
  DeviceId dev = kInvalidDevice;
  PacketId pkt = kInvalidPacket;
  PortId port = 0;
  VlId vl = 0;
};

/// Which pending-event structure the engine runs on.
enum class EventQueueKind : std::uint8_t {
  kHeap,    ///< binary heap (reference; O(log n) per event)
  kLadder,  ///< ladder/calendar queue (default; amortized O(1) per event)
};

[[nodiscard]] constexpr std::string_view to_string(EventQueueKind kind) {
  return kind == EventQueueKind::kHeap ? "heap" : "ladder";
}

/// Parses "heap" / "ladder" (the --event-queue CLI values); nullopt on
/// anything else.
[[nodiscard]] inline std::optional<EventQueueKind> event_queue_from_string(
    std::string_view text) {
  if (text == "heap") return EventQueueKind::kHeap;
  if (text == "ladder") return EventQueueKind::kLadder;
  return std::nullopt;
}

/// Queue internals surfaced through the telemetry layer into BENCH_*.json.
/// These describe *how* the run was computed, never *what* it computed: for
/// a given event stream the pop order is identical across kinds, so none of
/// these feed back into simulation results.
struct EventQueueStats {
  EventQueueKind kind = EventQueueKind::kLadder;
  std::uint64_t events_scheduled = 0;  ///< pushes (lifetime)
  std::uint64_t events_processed = 0;  ///< pops (lifetime)
  // --- ladder internals (zero when kind == kHeap) ---------------------------
  std::uint32_t buckets = 0;             ///< current ring size
  SimTime bucket_width_ns = 0;           ///< simulated time per bucket
  std::uint32_t resizes = 0;             ///< ring doublings under load
  std::uint64_t overflow_pushes = 0;     ///< events that missed the horizon
  std::uint64_t max_overflow_depth = 0;  ///< deepest the overflow tier got
  std::uint64_t max_bucket_events = 0;   ///< largest single epoch drain

  friend bool operator==(const EventQueueStats&,
                         const EventQueueStats&) = default;
};

namespace detail {
/// Strict-weak "earlier" order: time, then the content key (kind, dev, port,
/// vl, corder), then seq.  seq is unique, so this is a total order.  Events
/// with fully equal content keys are commutative (e.g. two credit returns to
/// the same (port, VL)), so seq as the final tie-break never changes results.
struct EventCompare {
  /// (kind, dev, port, vl) packed most significant first, so one integer
  /// comparison orders them lexicographically.
  static std::uint64_t content_key(const Event& e) noexcept {
    static_assert(sizeof(DeviceId) == 4 && sizeof(PortId) == 1 &&
                  sizeof(VlId) == 1 && sizeof(EventKind) == 1);
    return static_cast<std::uint64_t>(e.kind) << 48 |
           static_cast<std::uint64_t>(e.dev) << 16 |
           static_cast<std::uint64_t>(e.port) << 8 | e.vl;
  }

  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    const std::uint64_t ka = content_key(a);
    const std::uint64_t kb = content_key(b);
    if (ka != kb) return ka < kb;
    if (a.corder != b.corder) return a.corder < b.corder;
    return a.seq < b.seq;
  }
};

/// The reverse order, for std::priority_queue's max-heap.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return EventCompare{}(b, a);
  }
};
}  // namespace detail

/// The original binary-heap queue, kept as the bit-identical reference the
/// ladder queue is validated (and raced) against.
class HeapEventQueue {
 public:
  void push(const Event& e) { heap_.push(e); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] const Event& top() const { return heap_.top(); }

  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  std::priority_queue<Event, std::vector<Event>, detail::EventLater> heap_;
};

/// Ladder/calendar queue.  Simulated time is divided into fixed-width
/// epochs; an epoch's bucket lives in a power-of-two ring covering the
/// near horizon [current epoch, current epoch + buckets).  Pushes inside
/// the horizon append to their epoch's bucket (O(1)); pushes beyond it go
/// to a heap-ordered overflow tier.  When an epoch becomes current its
/// bucket is sorted once by the event order and drained through a cursor;
/// events scheduled *into the active epoch* while it drains (common: a
/// handler scheduling work a few ns ahead) are merge-inserted beyond the
/// cursor, preserving the exact total order.  Before any epoch drains,
/// overflow events that the advancing horizon now covers are pulled into
/// their buckets, so the tiers can never disagree about order.  The ring
/// doubles (a "resize") when occupancy crowds the buckets.
class LadderEventQueue {
 public:
  /// 64 ns buckets: finer than the engine's dominant deltas (routing 100 ns,
  /// wire 256 ns) so an epoch drain stays small, coarse enough that the
  /// default ring covers a 16 us horizon.
  static constexpr int kWidthLog2 = 6;
  static constexpr std::size_t kDefaultBuckets = 256;  // power of two
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  /// Ring doubles when it averages more than this many events per bucket.
  static constexpr std::size_t kResizeLoad = 8;

  LadderEventQueue() : ring_(kDefaultBuckets) {}

  void push(const Event& e) {
    ++size_;
    const std::uint64_t ep = epoch_of(e.time);
    if (draining_ && ep <= cur_epoch_) {
      // Arrival into (or, after a peek advanced the horizon, before) the
      // active epoch: merge beyond the drain cursor.  e.seq is larger than
      // every queued seq, so upper_bound lands it after all already-pending
      // events with the same order key.  A same-timestamp event with a
      // smaller content key than an already-popped one clamps to the
      // cursor, which is exactly where a heap would pop it next.
      const auto it =
          std::upper_bound(drain_.begin() + static_cast<std::ptrdiff_t>(pos_),
                           drain_.end(), e, earlier_);
      drain_.insert(it, e);
      return;
    }
    MLID_ASSERT(ep >= cur_epoch_, "event epoch behind the drained horizon");
    if (ep - cur_epoch_ < ring_.size()) {
      ring_[ep & (ring_.size() - 1)].push_back(e);
      ++ring_count_;
      if (ring_count_ > ring_.size() * kResizeLoad &&
          ring_.size() < kMaxBuckets) {
        grow();
      }
    } else {
      overflow_.push(e);
      ++overflow_pushes_;
      max_overflow_depth_ =
          std::max(max_overflow_depth_, static_cast<std::uint64_t>(
                                            overflow_.size()));
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The globally next event, or nullptr when empty.  Non-const: reaching
  /// the next epoch sorts its bucket into the drain run.
  [[nodiscard]] const Event* peek() {
    if (size_ == 0) return nullptr;
    prepare();
    return &drain_[pos_];
  }

  Event pop() {
    prepare();
    --size_;
    return drain_[pos_++];
  }

  // --- internals telemetry ----------------------------------------------------
  [[nodiscard]] std::uint32_t buckets() const noexcept {
    return static_cast<std::uint32_t>(ring_.size());
  }
  [[nodiscard]] SimTime bucket_width_ns() const noexcept {
    return SimTime{1} << kWidthLog2;
  }
  [[nodiscard]] std::uint32_t resizes() const noexcept { return resizes_; }
  [[nodiscard]] std::uint64_t overflow_pushes() const noexcept {
    return overflow_pushes_;
  }
  [[nodiscard]] std::uint64_t max_overflow_depth() const noexcept {
    return max_overflow_depth_;
  }
  [[nodiscard]] std::uint64_t max_bucket_events() const noexcept {
    return max_bucket_events_;
  }

 private:
  [[nodiscard]] static std::uint64_t epoch_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t) >> kWidthLog2;
  }

  /// Ensures drain_[pos_] is the globally next event.  Pre: size_ > 0.
  void prepare() {
    if (pos_ < drain_.size()) return;
    drain_.clear();
    pos_ = 0;
    // Next epoch holding events: the nearest non-empty ring bucket or the
    // overflow front, whichever is earlier.  The scan is bounded by the
    // ring size and in practice by the engine's short event horizon.
    std::uint64_t next = kNoEpoch;
    if (ring_count_ > 0) {
      std::uint64_t ep = draining_ ? cur_epoch_ + 1 : cur_epoch_;
      while (ring_[ep & (ring_.size() - 1)].empty()) ++ep;
      next = ep;
    }
    if (!overflow_.empty()) {
      next = std::min(next, epoch_of(overflow_.top().time));
    }
    MLID_ASSERT(next != kNoEpoch, "ladder lost track of its events");
    cur_epoch_ = next;
    draining_ = true;
    // The horizon moved: any overflow event it now covers belongs in a
    // bucket (possibly the one about to drain).
    while (!overflow_.empty() &&
           epoch_of(overflow_.top().time) - cur_epoch_ < ring_.size()) {
      const Event& e = overflow_.top();
      ring_[epoch_of(e.time) & (ring_.size() - 1)].push_back(e);
      overflow_.pop();
      ++ring_count_;
    }
    auto& bucket = ring_[cur_epoch_ & (ring_.size() - 1)];
    drain_.swap(bucket);
    bucket.clear();
    ring_count_ -= drain_.size();
    std::sort(drain_.begin(), drain_.end(), earlier_);
    max_bucket_events_ =
        std::max(max_bucket_events_, static_cast<std::uint64_t>(drain_.size()));
  }

  void grow() {
    std::vector<std::vector<Event>> wider(ring_.size() * 2);
    for (auto& bucket : ring_) {
      for (const Event& e : bucket) {
        wider[epoch_of(e.time) & (wider.size() - 1)].push_back(e);
      }
    }
    ring_.swap(wider);
    ++resizes_;
  }

  static constexpr std::uint64_t kNoEpoch =
      std::numeric_limits<std::uint64_t>::max();

  detail::EventCompare earlier_;
  std::priority_queue<Event, std::vector<Event>, detail::EventLater>
      overflow_;
  std::vector<std::vector<Event>> ring_;  ///< epoch e -> ring_[e & mask]
  std::vector<Event> drain_;  ///< current epoch, sorted; pos_ is the cursor
  std::size_t pos_ = 0;
  std::uint64_t cur_epoch_ = 0;
  bool draining_ = false;   ///< cur_epoch_'s bucket has been claimed by drain_
  std::size_t size_ = 0;    ///< all tiers
  std::size_t ring_count_ = 0;  ///< events in ring buckets (not drain/overflow)
  std::uint32_t resizes_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  std::uint64_t max_overflow_depth_ = 0;
  std::uint64_t max_bucket_events_ = 0;
};

/// The engine's pending-event set.  Owns the sequence numbering, the
/// monotonic-time contract and the scheduled/processed counters; delegates
/// ordering to the implementation SimConfig::event_queue selects.
class EventQueue {
 public:
  explicit EventQueue(EventQueueKind kind = EventQueueKind::kLadder)
      : kind_(kind) {}

  void push(SimTime time, EventKind kind, DeviceId dev, PortId port = 0,
            VlId vl = 0, PacketId pkt = kInvalidPacket,
            std::uint64_t corder = 0) {
    MLID_ASSERT(time >= last_popped_, "scheduling into the past");
    const Event e{time, next_seq_++, corder, kind, dev, pkt, port, vl};
    if (kind_ == EventQueueKind::kHeap) {
      heap_.push(e);
    } else {
      ladder_.push(e);
    }
  }

  [[nodiscard]] bool empty() const noexcept {
    return kind_ == EventQueueKind::kHeap ? heap_.empty() : ladder_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return kind_ == EventQueueKind::kHeap ? heap_.size() : ladder_.size();
  }

  /// The next event without removing it; nullptr when empty.
  [[nodiscard]] const Event* peek() {
    if (kind_ == EventQueueKind::kHeap) {
      return heap_.empty() ? nullptr : &heap_.top();
    }
    return ladder_.peek();
  }

  Event pop() {
    MLID_EXPECT(!empty(), "popping an empty event queue");
    const Event e =
        kind_ == EventQueueKind::kHeap ? heap_.pop() : ladder_.pop();
    last_popped_ = e.time;
    ++pops_;
    return e;
  }

  /// The engine's main loop: dispatch every event strictly before `end`,
  /// including events the handlers schedule along the way.  On the ladder
  /// this runs down sorted bucket drains instead of re-heapifying per event.
  template <typename Fn>
  void drain_until(SimTime end, Fn&& handle) {
    while (const Event* e = peek()) {
      if (e->time >= end) break;
      handle(pop());
    }
  }

  /// Events pushed over the queue's lifetime.
  [[nodiscard]] std::uint64_t events_scheduled() const noexcept {
    return next_seq_;
  }

  /// Events actually popped (dispatched).  Strictly less than
  /// events_scheduled() whenever the run ends with work still queued --
  /// the distinction the events/sec manifests report on.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return pops_;
  }

  [[nodiscard]] EventQueueKind kind() const noexcept { return kind_; }

  [[nodiscard]] EventQueueStats stats() const noexcept {
    EventQueueStats s;
    s.kind = kind_;
    s.events_scheduled = next_seq_;
    s.events_processed = pops_;
    if (kind_ == EventQueueKind::kLadder) {
      s.buckets = ladder_.buckets();
      s.bucket_width_ns = ladder_.bucket_width_ns();
      s.resizes = ladder_.resizes();
      s.overflow_pushes = ladder_.overflow_pushes();
      s.max_overflow_depth = ladder_.max_overflow_depth();
      s.max_bucket_events = ladder_.max_bucket_events();
    }
    return s;
  }

 private:
  EventQueueKind kind_;
  HeapEventQueue heap_;
  LadderEventQueue ladder_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
  SimTime last_popped_ = 0;
};

}  // namespace mlid
