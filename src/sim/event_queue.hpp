// Discrete-event core: the deterministic time-ordered event queue.
//
// Ties on the timestamp are broken by event content -- (kind, dev, port, vl,
// corder), then insertion sequence -- so the dispatch order at each instant
// is a pure function of *what* is pending, not of which queue (or shard)
// scheduled it first.  That makes every run bit-reproducible for a given
// seed and identical across shard counts (asserted by the test suite).
//
// EventQueue, the engine's queue for the data and the control plane, is a
// calendar/ladder queue: an array of epoch buckets covering the near time
// horizon, a sorted overflow tier for far-future events and a side heap for
// pushes into the epoch being drained.  Its pop order is checked field for
// field against a plain binary-heap oracle over the same order
// (tests/sim/heap_event_queue.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// Queue internals surfaced through the telemetry layer into BENCH_*.json.
/// These describe *how* the run was computed, never *what* it computed: the
/// pop order is fixed by the event order alone, so none of these feed back
/// into simulation results.
struct EventQueueStats {
  std::uint64_t events_scheduled = 0;  ///< pushes (lifetime)
  std::uint64_t events_processed = 0;  ///< pops (lifetime)
  // --- ladder internals ------------------------------------------------------
  std::uint32_t buckets = 0;             ///< ring size
  SimTime bucket_width_ns = 0;           ///< simulated time per bucket
  std::uint32_t resizes = 0;             ///< always 0; bench/perf reads it
  std::uint64_t side_pushes = 0;         ///< pushes into a draining epoch
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

/// The engine's pending-event set: a ladder/calendar queue that also owns
/// the sequence numbering, the monotonic-time contract and the
/// scheduled/processed counters.  Simulated time is divided into fixed-width
/// epochs; an epoch's bucket lives in a fixed ring covering the near
/// horizon [current epoch, current epoch + kBuckets).  Pushes inside the
/// horizon append to their epoch's bucket (O(1)); pushes beyond it go to a
/// heap-ordered overflow tier.  When an epoch becomes current its bucket is
/// copied out, sorted once by the event order and drained through a cursor;
/// events scheduled *into the active epoch* while it drains (common: a
/// handler scheduling work a few ns ahead) go to a side heap, and the next
/// event is the earlier of its top and the cursor's, preserving the exact
/// total order at O(log n) per push.  Before any epoch drains, overflow
/// events that the advancing horizon now covers are pulled into their
/// buckets, so the tiers can never disagree about order.
class EventQueue {
 public:
  /// 64 ns buckets: finer than the engine's dominant deltas (routing 100 ns,
  /// wire 256 ns) so an epoch drain stays small, coarse enough that the
  /// ring covers a 16 us horizon.
  static constexpr int kWidthLog2 = 6;
  static constexpr std::size_t kBuckets = 256;  // power of two
  /// A drained bucket with room for more events than this frees its buffer,
  /// so a dense epoch does not pin its peak for the rest of the run.
  static constexpr std::size_t kBucketCap = 256;

  EventQueue() : ring_(kBuckets) {}

  void push(SimTime time, EventKind kind, DeviceId dev, PortId port = 0,
            VlId vl = 0, PacketId pkt = kInvalidPacket,
            std::uint64_t corder = 0) {
    MLID_ASSERT(time >= last_popped_, "scheduling into the past");
    const Event e{time, next_seq_++, corder, kind, dev, pkt, port, vl};
    ++size_;
    const std::uint64_t ep = epoch_of(time);
    if (draining_ && ep <= cur_epoch_) {
      // Arrival into (or, after a peek advanced the horizon, before) the
      // active epoch: the side heap orders it exactly as a heap would.
      side_.push(e);
      ++side_pushes_;
      return;
    }
    MLID_ASSERT(ep >= cur_epoch_, "event epoch behind the drained horizon");
    if (ep - cur_epoch_ < ring_.size()) {
      ring_[ep & (ring_.size() - 1)].push_back(e);
      ++ring_count_;
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
    return next_is_side() ? &side_.top() : &drain_[pos_];
  }

  Event pop() {
    MLID_EXPECT(!empty(), "popping an empty event queue");
    const bool side = next_is_side();
    const Event e = side ? side_.top() : drain_[pos_++];
    if (side) side_.pop();
    --size_;
    last_popped_ = e.time;
    ++pops_;
    return e;
  }

  /// The engine's main loop: dispatch every event strictly before `end`,
  /// including events the handlers schedule along the way, running down
  /// sorted bucket drains.
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

  /// Events the roomiest ring bucket has room for.  Once every bucket has
  /// drained it is at most kBucketCap.
  [[nodiscard]] std::size_t max_bucket_capacity() const noexcept {
    std::size_t cap = 0;
    for (const auto& bucket : ring_) cap = std::max(cap, bucket.capacity());
    return cap;
  }

  [[nodiscard]] EventQueueStats stats() const noexcept {
    EventQueueStats s;
    s.events_scheduled = next_seq_;
    s.events_processed = pops_;
    s.buckets = static_cast<std::uint32_t>(ring_.size());
    s.bucket_width_ns = SimTime{1} << kWidthLog2;
    s.side_pushes = side_pushes_;
    s.overflow_pushes = overflow_pushes_;
    s.max_overflow_depth = max_overflow_depth_;
    s.max_bucket_events = max_bucket_events_;
    return s;
  }

 private:
  [[nodiscard]] static std::uint64_t epoch_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t) >> kWidthLog2;
  }

  /// Whether the globally next event is the side heap's top rather than
  /// drain_[pos_]; drains the next epoch when both are spent.  Side events
  /// lie at or before the draining epoch, so they precede every bucket.
  /// Pre: size_ > 0.
  bool next_is_side() {
    if (pos_ == drain_.size()) {
      if (!side_.empty()) return true;
      prepare();
    }
    return !side_.empty() && earlier_(side_.top(), drain_[pos_]);
  }

  /// Makes the next epoch holding events the drain run.  Pre: the drain run
  /// and the side heap are spent, and size_ > 0.
  void prepare() {
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
    // Copied, not swapped, so that only the drain run keeps a large buffer.
    auto& bucket = ring_[cur_epoch_ & (ring_.size() - 1)];
    drain_.assign(bucket.begin(), bucket.end());
    bucket.clear();
    if (bucket.capacity() > kBucketCap) std::vector<Event>().swap(bucket);
    ring_count_ -= drain_.size();
    std::sort(drain_.begin(), drain_.end(), earlier_);
    max_bucket_events_ =
        std::max(max_bucket_events_, static_cast<std::uint64_t>(drain_.size()));
  }

  static constexpr std::uint64_t kNoEpoch =
      std::numeric_limits<std::uint64_t>::max();

  using MinHeap =
      std::priority_queue<Event, std::vector<Event>, detail::EventLater>;

  detail::EventCompare earlier_;
  MinHeap overflow_;
  std::vector<std::vector<Event>> ring_;  ///< epoch e -> ring_[e & mask]
  std::vector<Event> drain_;  ///< current epoch, sorted; pos_ is the cursor
  MinHeap side_;              ///< pushes at or before the draining epoch
  std::size_t pos_ = 0;
  std::uint64_t cur_epoch_ = 0;
  bool draining_ = false;   ///< cur_epoch_'s bucket has been claimed by drain_
  std::size_t size_ = 0;    ///< all tiers
  std::size_t ring_count_ = 0;  ///< events in ring buckets (not drain/overflow)
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
  SimTime last_popped_ = 0;
  std::uint64_t side_pushes_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  std::uint64_t max_overflow_depth_ = 0;
  std::uint64_t max_bucket_events_ = 0;
};

}  // namespace mlid
