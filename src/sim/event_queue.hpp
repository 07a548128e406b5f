// Discrete-event core: the deterministic time-ordered event queue.
//
// Ties on the timestamp are broken by event content -- (kind, dev, port, vl,
// corder), then insertion sequence -- so the dispatch order at each instant
// is a pure function of *what* is pending, not of which queue (or shard)
// scheduled it first.  That makes every run bit-reproducible for a given
// seed and identical across shard counts (asserted by the test suite).
//
// EventQueue, the engine's queue for the data and the control plane, is a
// calendar/ladder queue: a ring of epoch buckets covering the near time
// horizon, whose width follows the event density, a sorted overflow tier
// for far-future events and a side heap for pushes into the epoch being
// drained.  Its pop order is checked field for field against a plain
// binary-heap oracle over the same order (tests/sim/heap_event_queue.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <string_view>
#include <utility>
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
  std::uint32_t buckets = 0;             ///< ring size at the end
  SimTime bucket_width_ns = 0;           ///< bucket width at the end
  std::uint32_t resizes = 0;             ///< bucket width changes
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
/// scheduled/processed counters.  Simulated time is divided into epochs of
/// one bucket width; an epoch's bucket lives in a ring covering the near
/// horizon [current epoch, current epoch + ring size).  Pushes inside the
/// horizon append to their epoch's bucket (O(1)); pushes beyond it go to a
/// heap-ordered overflow tier.  When an epoch becomes current its bucket is
/// sorted once, by one integer key per event, into the drain run and drained
/// through a cursor; events scheduled *into the active epoch* while it
/// drains (common: a handler scheduling work a few ns ahead) go to a side
/// heap, and the next event is the earlier of its top and the cursor's,
/// preserving the exact total order at O(log n) per push.  Before any epoch
/// drains, overflow events that the advancing horizon now covers are pulled
/// into their buckets, so the tiers can never disagree about order.
///
/// The width follows the density: a drain of more than kHighWater events
/// halves it (and doubles the ring, so the horizon keeps its length), and a
/// calm stretch of small drains doubles it again, never past 64 ns.  Both
/// read exact event counts only, so the width, like the pop order, is a
/// function of the event stream alone.
class EventQueue {
 public:
  /// The ring starts at, and never gets coarser than, 256 buckets x 64 ns:
  /// finer than the engine's dominant deltas (routing 100 ns, wire 256 ns)
  /// so an epoch drain stays small on the paper's fabrics, coarse enough
  /// that the ring covers a 16 us horizon.  A narrower width keeps that
  /// horizon with proportionally more buckets, down to 1 ns x 16 384.
  static constexpr int kMaxWidthLog2 = 6;
  static constexpr std::size_t kBuckets = 256;  // power of two
  /// A drain of more events than this halves the bucket width.
  static constexpr std::size_t kHighWater = 1024;
  /// A drained bucket with room for more events than this frees its buffer,
  /// so a dense epoch does not pin its peak for the rest of the run.  At a
  /// narrower width the cap shrinks with the bucket, so the ring never
  /// keeps room for more than kBuckets x kBucketCap idle events.
  static constexpr std::size_t kBucketCap = 256;

  EventQueue() : ring_(kBuckets) {}

  void push(SimTime time, EventKind kind, DeviceId dev, PortId port = 0,
            VlId vl = 0, PacketId pkt = kInvalidPacket,
            std::uint64_t corder = 0) {
    MLID_ASSERT(time >= last_popped_, "scheduling into the past");
    const Event e{time, next_seq_++, corder, kind, dev, pkt, port, vl};
    ++size_;
    if (draining_ && epoch_of(time) <= cur_epoch_) {
      // Arrival into (or, after a peek advanced the horizon, before) the
      // active epoch: the side heap orders it exactly as a heap would.
      side_.push(e);
      ++side_pushes_;
      return;
    }
    place(e);
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
    return take(next_is_side());
  }

  /// The engine's main loop: dispatch every event strictly before `end`,
  /// including events the handlers schedule along the way, running down
  /// sorted bucket drains.
  template <typename Fn>
  void drain_until(SimTime end, Fn&& handle) {
    while (size_ > 0) {
      const bool side = next_is_side();
      if ((side ? side_.top() : drain_[pos_]).time >= end) break;
      handle(take(side));
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
    s.bucket_width_ns = SimTime{1} << width_log2_;
    s.resizes = resizes_;
    s.side_pushes = side_pushes_;
    s.overflow_pushes = overflow_pushes_;
    s.max_overflow_depth = max_overflow_depth_;
    s.max_bucket_events = max_bucket_events_;
    return s;
  }

 private:
  [[nodiscard]] std::uint64_t epoch_of(SimTime t) const noexcept {
    return static_cast<std::uint64_t>(t) >> width_log2_;
  }

  /// Files an event at or after the current epoch into its ring bucket, or
  /// into the overflow tier when it lies beyond the horizon.
  void place(const Event& e) {
    const std::uint64_t ep = epoch_of(e.time);
    MLID_ASSERT(ep >= cur_epoch_, "event epoch behind the drained horizon");
    if (ep - cur_epoch_ < ring_.size()) {
      ring_[ep & (ring_.size() - 1)].push_back(e);
      ++ring_count_;
    } else {
      overflow_.push(e);
      ++overflow_pushes_;
      max_overflow_depth_ = std::max(
          max_overflow_depth_, static_cast<std::uint64_t>(overflow_.size()));
    }
  }

  /// Removes the next event: the side heap's top or the drain cursor's.
  Event take(bool side) {
    const Event e = side ? side_.top() : drain_[pos_++];
    if (side) side_.pop();
    --size_;
    last_popped_ = e.time;
    ++pops_;
    return e;
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
    adapt_width(drain_.size());
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
      place(overflow_.top());
      overflow_.pop();
    }
    auto& bucket = ring_[cur_epoch_ & (ring_.size() - 1)];
    ring_count_ -= bucket.size();
    sort_into_drain(bucket);
    bucket.clear();
    if (bucket.capacity() > kBucketCap * kBuckets / ring_.size()) {
      std::vector<Event>().swap(bucket);
    }
    max_bucket_events_ =
        std::max(max_bucket_events_, static_cast<std::uint64_t>(drain_.size()));
  }

  /// Sets the width for the next drain from the last one's n events.  A
  /// drain above kHighWater halves it.  Drains below kHighWater / 4 are
  /// calm, and once the calm ones since the last resize have dispatched
  /// more events than the ring holds -- so re-bucketing moves at most one
  /// event per event dispatched -- the width doubles; a calm drain doubled
  /// stays under kHighWater / 2, so the two rules do not chase each other.
  /// Widening serves runs that start dense and end sparse: an FT(16,4)
  /// gather narrows to 1 ns at its synchronized start, and without
  /// widening its 9.7 ms incast tail visits 9.2 M empty buckets
  /// (EXPERIMENTS.md).  Pre: as prepare().
  void adapt_width(std::size_t n) {
    calm_events_ = n < kHighWater / 4 ? calm_events_ + n : 0;
    if (n > kHighWater && width_log2_ > 0) {
      set_width(width_log2_ - 1);
    } else if (width_log2_ < kMaxWidthLog2 && calm_events_ > ring_count_) {
      set_width(width_log2_ + 1);
    }
  }

  /// Re-buckets every ring event for a new width, sizing the ring so the
  /// horizon keeps its length; an event the new horizon misses goes to the
  /// overflow tier.  Pre: as prepare(), so every pending event lies at or
  /// after last_popped_.
  void set_width(int width_log2) {
    std::vector<std::vector<Event>> old = std::exchange(
        ring_, std::vector<std::vector<Event>>(
                   kBuckets << (kMaxWidthLog2 - width_log2)));
    width_log2_ = width_log2;
    cur_epoch_ = epoch_of(last_popped_);
    draining_ = false;
    ring_count_ = 0;
    for (auto& bucket : old) {
      for (const Event& e : bucket) place(e);
      std::vector<Event>().swap(bucket);  // hold one copy of the events
    }
    calm_events_ = 0;
    ++resizes_;
  }

  /// Fills the drain run with the current epoch's bucket in event order.
  /// Within one epoch the time offset, kind, dev, port and VL pack into one
  /// integer, most significant first, so integer order is EventCompare's
  /// order up to corder and seq; the event's position in the bucket fills
  /// the low bits, so sorting the keys alone yields the permutation to
  /// gather by.  Runs that tie on the whole content key are re-sorted by
  /// the comparator, which orders them by corder, then seq.  A bucket with
  /// a device id or a size too wide for the key is sorted by the
  /// comparator outright.
  void sort_into_drain(const std::vector<Event>& bucket) {
    // Bits, most significant first: offset 6, kind 4, dev 22, port 8,
    // vl 8, position 16.
    static_assert(static_cast<int>(EventKind::kCcRelease) < 16);
    constexpr int kPosBits = 16;
    constexpr int kDevBits = 22;
    const std::size_t n = bucket.size();
    const std::uint64_t offset_mask = (std::uint64_t{1} << width_log2_) - 1;
    std::uint64_t devs = 0;
    keys_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = bucket[i];
      devs |= e.dev;
      keys_.push_back((static_cast<std::uint64_t>(e.time) & offset_mask) << 58 |
                      static_cast<std::uint64_t>(e.kind) << 54 |
                      static_cast<std::uint64_t>(e.dev) << 32 |
                      static_cast<std::uint64_t>(e.port) << 24 |
                      static_cast<std::uint64_t>(e.vl) << kPosBits | i);
    }
    if (devs >> kDevBits != 0 || n > std::size_t{1} << kPosBits) {
      drain_.assign(bucket.begin(), bucket.end());
      std::sort(drain_.begin(), drain_.end(), earlier_);
      return;
    }
    std::sort(keys_.begin(), keys_.end());
    constexpr std::uint64_t kPosMask = (std::uint64_t{1} << kPosBits) - 1;
    for (const std::uint64_t key : keys_) {
      drain_.push_back(bucket[key & kPosMask]);
    }
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      while (j < n && (keys_[j] ^ keys_[i]) >> kPosBits == 0) ++j;
      if (j - i > 1) {
        std::sort(drain_.begin() + static_cast<std::ptrdiff_t>(i),
                  drain_.begin() + static_cast<std::ptrdiff_t>(j), earlier_);
      }
      i = j;
    }
  }

  static constexpr std::uint64_t kNoEpoch =
      std::numeric_limits<std::uint64_t>::max();

  using MinHeap =
      std::priority_queue<Event, std::vector<Event>, detail::EventLater>;

  detail::EventCompare earlier_;
  MinHeap overflow_;
  std::vector<std::vector<Event>> ring_;  ///< epoch e -> ring_[e & mask]
  std::vector<Event> drain_;  ///< current epoch, sorted; pos_ is the cursor
  std::vector<std::uint64_t> keys_;  ///< the drain's sort keys, reused
  MinHeap side_;              ///< pushes at or before the draining epoch
  std::size_t pos_ = 0;
  int width_log2_ = kMaxWidthLog2;  ///< bucket width is 2^width_log2_ ns
  std::uint64_t cur_epoch_ = 0;
  bool draining_ = false;   ///< cur_epoch_'s bucket has been claimed by drain_
  std::size_t size_ = 0;    ///< all tiers
  std::size_t ring_count_ = 0;  ///< events in ring buckets (not drain/overflow)
  std::size_t calm_events_ = 0;  ///< see adapt_width()
  std::uint64_t next_seq_ = 0;
  std::uint64_t pops_ = 0;
  SimTime last_popped_ = 0;
  std::uint32_t resizes_ = 0;
  std::uint64_t side_pushes_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  std::uint64_t max_overflow_depth_ = 0;
  std::uint64_t max_bucket_events_ = 0;
};

}  // namespace mlid
