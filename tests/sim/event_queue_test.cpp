#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "heap_event_queue.hpp"

namespace mlid {
namespace {

// The ordering contract holds for the production ladder and for the heap
// oracle alike: the parity streams below are only as good as the oracle, so
// the oracle is held to the same order on its own.
template <typename Queue>
class EventQueueTest : public ::testing::Test {};

using QueueTypes = ::testing::Types<EventQueue, HeapEventQueue>;

struct QueueTypeName {
  template <typename Queue>
  static std::string GetName(int /*index*/) {
    return std::is_same_v<Queue, EventQueue> ? "EventQueue" : "HeapEventQueue";
  }
};

TYPED_TEST_SUITE(EventQueueTest, QueueTypes, QueueTypeName);

TYPED_TEST(EventQueueTest, PopsInTimeOrder) {
  TypeParam q;
  q.push(30, EventKind::kTailOut, 1);
  q.push(10, EventKind::kGenerate, 2);
  q.push(20, EventKind::kDeliver, 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, SimultaneousEventsPopInContentOrder) {
  TypeParam q;
  for (DeviceId dev = 10; dev-- > 0;) {
    q.push(5, EventKind::kTailOut, dev);
  }
  for (DeviceId dev = 0; dev < 10; ++dev) {
    EXPECT_EQ(q.pop().dev, dev);
  }
}

TYPED_TEST(EventQueueTest, FullyTiedEventsPopInInsertionOrder) {
  // Equal content keys are commutative; seq keeps the order deterministic.
  TypeParam q;
  for (PacketId pkt = 0; pkt < 10; ++pkt) {
    q.push(5, EventKind::kCreditArrive, 3, 1, 0, pkt);
  }
  for (PacketId pkt = 0; pkt < 10; ++pkt) {
    EXPECT_EQ(q.pop().pkt, pkt);
  }
}

TYPED_TEST(EventQueueTest, CarriesThePayload) {
  TypeParam q;
  q.push(7, EventKind::kHeadArrive, 42, 3, 2, 99);
  const Event e = q.pop();
  EXPECT_EQ(e.kind, EventKind::kHeadArrive);
  EXPECT_EQ(e.dev, 42u);
  EXPECT_EQ(int(e.port), 3);
  EXPECT_EQ(int(e.vl), 2);
  EXPECT_EQ(e.pkt, 99u);
}

TEST(EventQueueTest, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), ContractViolation);
}

TEST(EventQueueTest, PeekReturnsNextWithoutRemoving) {
  EventQueue q;
  EXPECT_EQ(q.peek(), nullptr);
  q.push(20, EventKind::kTailOut, 2);
  q.push(10, EventKind::kGenerate, 1);
  const Event* e = q.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->time, 10);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().dev, 1u);
  EXPECT_EQ(q.pop().dev, 2u);
}

TEST(EventQueueTest, SchedulingIntoThePastIsACodingError) {
  EventQueue q;
  q.push(100, EventKind::kGenerate, 0);
  (void)q.pop();
  EXPECT_THROW(q.push(50, EventKind::kGenerate, 0), ContractViolation);
}

TEST(EventQueueTest, PushAtTheLastPoppedTimestampIsLegal) {
  EventQueue q;
  q.push(100, EventKind::kGenerate, 1);
  (void)q.pop();
  q.push(100, EventKind::kTailOut, 2);  // same instant: fine, later seq
  EXPECT_EQ(q.pop().dev, 2u);
}

// Regression: events_processed() used to return the *scheduled* count
// (next_seq_), so manifests divided wall time by pushes, over-reporting
// events/sec whenever the end time cut the run off with work still queued.
TEST(EventQueueTest, ScheduledAndProcessedAreSeparateCounters) {
  EventQueue q;
  EXPECT_EQ(q.events_scheduled(), 0u);
  EXPECT_EQ(q.events_processed(), 0u);
  q.push(1, EventKind::kGenerate, 0);
  q.push(2, EventKind::kGenerate, 0);
  EXPECT_EQ(q.events_scheduled(), 2u);
  EXPECT_EQ(q.events_processed(), 0u);
  (void)q.pop();
  EXPECT_EQ(q.events_scheduled(), 2u);
  EXPECT_EQ(q.events_processed(), 1u);
  (void)q.pop();
  EXPECT_EQ(q.events_processed(), 2u);
  const EventQueueStats s = q.stats();
  EXPECT_EQ(s.events_scheduled, 2u);
  EXPECT_EQ(s.events_processed, 2u);
}

TYPED_TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  TypeParam q;
  q.push(10, EventKind::kGenerate, 1);
  q.push(20, EventKind::kGenerate, 2);
  EXPECT_EQ(q.pop().dev, 1u);
  q.push(15, EventKind::kGenerate, 3);
  q.push(12, EventKind::kGenerate, 4);
  EXPECT_EQ(q.pop().dev, 4u);
  EXPECT_EQ(q.pop().dev, 3u);
  EXPECT_EQ(q.pop().dev, 2u);
}

TEST(EventQueueTest, DrainUntilStopsAtTheBoundary) {
  EventQueue q;
  q.push(10, EventKind::kGenerate, 1);
  q.push(50, EventKind::kGenerate, 2);
  q.push(90, EventKind::kGenerate, 3);
  std::vector<DeviceId> seen;
  q.drain_until(90, [&](const Event& e) {
    seen.push_back(e.dev);
    if (e.dev == 1) q.push(60, EventKind::kTailOut, 4);  // scheduled mid-drain
  });
  EXPECT_EQ(seen, (std::vector<DeviceId>{1, 2, 4}));
  EXPECT_EQ(q.size(), 1u);  // the t=90 event is not strictly before 90
  EXPECT_EQ(q.events_processed(), 3u);
}

// --- ladder internals -------------------------------------------------------

TEST(LadderInternals, FarFutureEventsGoThroughOverflowAndComeBackInOrder) {
  EventQueue q;
  // Default horizon is 256 buckets x 64 ns = 16384 ns; 1e6 is far beyond.
  q.push(1'000'000, EventKind::kDeliver, 7);
  q.push(5, EventKind::kGenerate, 1);
  EXPECT_GT(q.stats().overflow_pushes, 0u);
  EXPECT_EQ(q.pop().dev, 1u);
  EXPECT_EQ(q.pop().dev, 7u);
  EXPECT_TRUE(q.empty());
}

TEST(LadderInternals, DenseEpochDrainsInOrderThroughTheSideHeap) {
  EventQueue q;
  // 6000 events in one 64 ns epoch, far more than a bucket keeps room for.
  constexpr int kEvents = 6000;
  for (int i = 0; i < kEvents; ++i) {
    q.push(640 + (i * 13) % 64, EventKind::kTailOut, static_cast<DeviceId>(i));
  }
  EXPECT_GT(q.max_bucket_capacity(), EventQueue::kBucketCap);
  Event prev = q.pop();
  // The epoch is drained from a copy, and its outsized bucket is freed.
  EXPECT_LE(q.max_bucket_capacity(), EventQueue::kBucketCap);
  const detail::EventCompare earlier;
  int popped = 1;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_TRUE(earlier(prev, e)) << "pop " << popped;
    prev = e;
    // Every third pop schedules into the draining epoch (it ends at 704),
    // strictly after now, so each pop is strictly later than the last.
    if (++popped % 3 == 0 && e.time < 703) {
      q.push(e.time + 1 + (popped / 3) % (703 - e.time), EventKind::kRouted,
             static_cast<DeviceId>(popped));
    }
  }
  EXPECT_GT(q.stats().side_pushes, 0u);
  EXPECT_EQ(q.stats().side_pushes + kEvents, q.events_processed());
  EXPECT_LE(q.max_bucket_capacity(), EventQueue::kBucketCap);
}

TEST(LadderInternals, StatsDescribeTheLadder) {
  EventQueue q;
  q.push(1, EventKind::kGenerate, 0);
  (void)q.pop();
  const EventQueueStats s = q.stats();
  EXPECT_EQ(s.buckets, EventQueue::kBuckets);
  EXPECT_EQ(s.bucket_width_ns, 64);
  EXPECT_EQ(s.max_bucket_events, 1u);
}

// --- property test: the ladder pops exactly what the heap oracle pops -------

/// Device ids up to 2^32 send most epoch drains down the ladder's
/// comparator sort; ids below 2^22 fit its integer drain key.
constexpr std::uint64_t kWideIds = std::uint64_t{1} << 32;
constexpr std::uint64_t kKeyIds = std::uint64_t{1} << 22;

/// Feeds one event to both queues.  Kind, device, port, VL and corder are all
/// drawn, from ranges narrow enough that every level of the content order --
/// the packed (kind, dev, port, vl) key, then corder, then seq -- decides
/// some ties.
void push_both(HeapEventQueue& heap, EventQueue& ladder, SimTime t,
               Xoshiro256& rng, std::uint64_t id_bound = kWideIds) {
  const auto kind = static_cast<EventKind>(
      rng.below(static_cast<std::uint64_t>(EventKind::kCcRelease) + 1));
  // Mostly a handful of devices (content ties), sometimes a wide id.
  const auto dev = static_cast<DeviceId>(
      rng.below(4) == 0 ? rng.below(id_bound) : rng.below(4));
  const auto port = static_cast<PortId>(rng.below(4) == 0 ? rng.below(256)
                                                          : rng.below(3));
  const auto vl = static_cast<VlId>(rng.below(4));
  const std::uint64_t corder = rng.below(4) == 0 ? rng() : rng.below(3);
  const auto pkt = static_cast<PacketId>(rng.below(1'000));
  heap.push(t, kind, dev, port, vl, pkt, corder);
  ladder.push(t, kind, dev, port, vl, pkt, corder);
}

/// Pops one event from each queue; every field must match.  Returns the
/// heap's event.
Event pop_both(HeapEventQueue& heap, EventQueue& ladder) {
  const Event a = heap.pop();
  const Event b = ladder.pop();
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.corder, b.corder);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.dev, b.dev);
  EXPECT_EQ(a.pkt, b.pkt);
  EXPECT_EQ(a.port, b.port);
  EXPECT_EQ(a.vl, b.vl);
  return a;
}

// Randomized push/pop streams exercised against both queues in lockstep:
// same-timestamp bursts, pushes landing exactly at last_popped_ (the active
// epoch's drain cursor, so into the side heap) and far-future overflow
// traffic, with device ids that fit the drain key and ids that do not.
TEST(EventQueueParity, RandomizedStreamsPopIdentically) {
  for (const auto& [seed, id_bound] :
       {std::pair{1u, kWideIds}, std::pair{7u, kWideIds},
        std::pair{42u, kWideIds}, std::pair{1u, kKeyIds},
        std::pair{7u, kKeyIds}, std::pair{42u, kKeyIds}}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " ids < "
                                      << id_bound);
    HeapEventQueue heap;
    EventQueue ladder;
    Xoshiro256 rng(seed);
    SimTime now = 0;
    for (int step = 0; step < 50'000; ++step) {
      const bool push = heap.empty() || rng.below(100) < 55;
      if (push) {
        SimTime t = now;
        switch (rng.below(10)) {
          case 0:  // same-instant burst member
            break;
          case 1:  // exact bucket-width boundary
            t += 64 * static_cast<SimTime>(1 + rng.below(4));
            break;
          case 2:  // far future: overflow tier
            t += 20'000 + static_cast<SimTime>(rng.below(200'000));
            break;
          default:  // typical engine deltas
            t += static_cast<SimTime>(rng.below(1'000));
        }
        push_both(heap, ladder, t, rng, id_bound);
      } else {
        now = pop_both(heap, ladder).time;
      }
      if (::testing::Test::HasFailure()) FAIL() << "step " << step;
    }
    while (!heap.empty()) pop_both(heap, ladder);
    EXPECT_TRUE(ladder.empty());
    // The stream was heavy enough to exercise every ladder tier.
    const EventQueueStats s = ladder.stats();
    EXPECT_GT(s.overflow_pushes, 0u);
    EXPECT_GT(s.side_pushes, 0u);
  }
}

// The FT(16,4) shape: one 64 ns epoch holding more than 10 k events, drained
// while handlers keep scheduling into that same epoch (at or after the drain
// cursor's time) and into the next few.
TEST(EventQueueParity, DenseEpochWithPushesIntoTheDrainingEpoch) {
  constexpr SimTime kEpochStart = 64 * 100;
  constexpr SimTime kEpochEnd = kEpochStart + 64;  // exclusive
  HeapEventQueue heap;
  EventQueue ladder;
  Xoshiro256 rng(13);
  for (int i = 0; i < 12'000; ++i) {
    push_both(heap, ladder,
              kEpochStart + static_cast<SimTime>(rng.below(64)), rng);
  }
  SimTime now = 0;
  while (!heap.empty()) {
    now = pop_both(heap, ladder).time;
    if (::testing::Test::HasFailure()) FAIL() << "at t=" << now;
    if (now < kEpochEnd && rng.below(8) == 0) {
      // Into the draining epoch, never before the cursor's time.
      push_both(heap, ladder,
                now + static_cast<SimTime>(rng.below(
                          static_cast<std::uint64_t>(kEpochEnd - now))),
                rng);
    } else if (now < kEpochEnd && rng.below(16) == 0) {
      push_both(heap, ladder, now + static_cast<SimTime>(rng.below(256)), rng);
    }
  }
  EXPECT_TRUE(ladder.empty());
  EXPECT_GT(ladder.stats().max_bucket_events, 10'000u);
}

// The control-plane shape: sparse events microseconds to milliseconds apart,
// and a driver that peeks the next one before deciding how far to run.  A
// peek advances the ladder's horizon to that far epoch without popping, so
// later pushes may land *before* the peeked event (never before the last
// pop) and must still come out first.
TEST(EventQueueParity, PushesBelowAPeekedEventPopIdentically) {
  HeapEventQueue heap;
  EventQueue ladder;
  Xoshiro256 rng(29);
  SimTime now = 0;
  std::uint64_t pushed_below_peek = 0;
  for (int step = 0; step < 5'000; ++step) {
    if (heap.empty() || rng.below(3) == 0) {
      push_both(heap, ladder,
                now + static_cast<SimTime>(rng.below(2'000'000)), rng);
    }
    const Event* next = ladder.peek();
    ASSERT_NE(next, nullptr);
    const SimTime peeked = next->time;
    if (peeked > now && rng.below(2) == 0) {
      push_both(heap, ladder,
                now + static_cast<SimTime>(rng.below(
                          static_cast<std::uint64_t>(peeked - now))),
                rng);
      ++pushed_below_peek;
    }
    now = pop_both(heap, ladder).time;
    if (::testing::Test::HasFailure()) FAIL() << "step " << step;
  }
  while (!heap.empty()) pop_both(heap, ladder);
  EXPECT_TRUE(ladder.empty());
  EXPECT_GT(pushed_below_peek, 1'000u);
  EXPECT_GT(ladder.stats().overflow_pushes, 0u);
  // Sparse: the buckets never narrow.
  EXPECT_EQ(ladder.stats().resizes, 0u);
}

// A density ramp: sparse, then more than 200 events per ns for 3 us, then
// sparse again.  Each event is scheduled 20-256 ns ahead, as the engine's
// handlers do, and the stream keeps pushing into the draining epoch and
// below a peeked event throughout.  The buckets narrow as drains pass the
// high-water mark, fast enough that no drain reaches twice that, and widen
// again once the stream calms down; every pop matches the heap's.
TEST(EventQueueParity, DensityRampNarrowsAndWidensTheBuckets) {
  HeapEventQueue heap;
  EventQueue ladder;
  Xoshiro256 rng(31);
  // Events generated per ns at generator time t: 1/8 until 2 us, ramping by
  // one every 8 ns to 200 at 3.6 us, held to 6.6 us, ramping back down by
  // 8.2 us, then 1/8 again until 16 us.
  const auto rate = [&](SimTime t) -> std::uint64_t {
    if (t < 2'000 || t >= 8'200) return rng.below(8) == 0 ? 1 : 0;
    if (t < 3'600) return static_cast<std::uint64_t>(t - 2'000) / 8;
    if (t < 6'600) return 200;
    return static_cast<std::uint64_t>(8'200 - t) / 8;
  };
  SimTime now = 0;
  SimTime min_width = ladder.stats().bucket_width_ns;
  std::uint64_t pushed_below_peek = 0;
  for (SimTime t = 0; t < 16'000; ++t) {
    for (std::uint64_t i = rate(t); i > 0; --i) {
      push_both(heap, ladder, t + 20 + static_cast<SimTime>(rng.below(237)),
                rng, kKeyIds);
    }
    while (const Event* next = ladder.peek()) {
      if (next->time > t) break;
      if (next->time > now && rng.below(4) == 0) {
        push_both(heap, ladder,
                  now + static_cast<SimTime>(rng.below(
                            static_cast<std::uint64_t>(next->time - now))),
                  rng, kKeyIds);
        ++pushed_below_peek;
      }
      now = pop_both(heap, ladder).time;
      if (rng.below(8) == 0) {
        // Into the draining epoch, whatever the width.
        push_both(heap, ladder, now, rng, kKeyIds);
      }
      if (::testing::Test::HasFailure()) FAIL() << "at t=" << now;
    }
    min_width = std::min(min_width, ladder.stats().bucket_width_ns);
  }
  while (!heap.empty()) pop_both(heap, ladder);
  EXPECT_TRUE(ladder.empty());
  const EventQueueStats s = ladder.stats();
  EXPECT_LT(min_width, 64) << "never narrowed";
  EXPECT_GT(s.bucket_width_ns, min_width) << "never widened again";
  EXPECT_GE(s.resizes, 2u);
  EXPECT_LT(s.max_bucket_events, 2 * EventQueue::kHighWater);
  EXPECT_GT(s.side_pushes, 0u);
  EXPECT_GT(pushed_below_peek, 1'000u);
}

// Events tied on (time, kind, dev, port, vl) pop by corder, then seq, also
// in epochs drained after a width change re-bucketed them.
TEST(EventQueueParity, ContentTiesPopByCorderThenSeqAcrossAWidthChange) {
  HeapEventQueue heap;
  EventQueue ladder;
  Xoshiro256 rng(37);
  const auto push = [&](SimTime t, EventKind kind, DeviceId dev,
                        PacketId pkt, std::uint64_t corder) {
    heap.push(t, kind, dev, 1, 0, pkt, corder);
    ladder.push(t, kind, dev, 1, 0, pkt, corder);
  };
  // 2 000 events in the epoch [0, 64) ns: draining it halves the width.
  for (int i = 0; i < 2'000; ++i) {
    push(static_cast<SimTime>(rng.below(64)), EventKind::kTailOut,
         static_cast<DeviceId>(rng.below(1'000)), kInvalidPacket, 0);
  }
  // Then 300 groups of eight events tied on the whole content key, with
  // corders drawn from {0, 1, 2}, so corder and seq both decide.
  for (int g = 0; g < 300; ++g) {
    const auto t = 64 + static_cast<SimTime>(rng.below(128));
    const auto dev = static_cast<DeviceId>(rng.below(16));
    for (int k = 0; k < 8; ++k) {
      push(t, EventKind::kCreditArrive, dev, static_cast<PacketId>(8 * g + k),
           rng.below(3));
    }
  }
  Event prev = pop_both(heap, ladder);
  std::uint64_t tied = 0;
  while (!heap.empty()) {
    const Event e = pop_both(heap, ladder);
    if (::testing::Test::HasFailure()) FAIL() << "at t=" << e.time;
    if (e.time == prev.time && detail::EventCompare::content_key(e) ==
                                   detail::EventCompare::content_key(prev)) {
      ++tied;
      EXPECT_TRUE(prev.corder < e.corder ||
                  (prev.corder == e.corder && prev.seq < e.seq));
    }
    prev = e;
  }
  EXPECT_TRUE(ladder.empty());
  EXPECT_GT(tied, 1'000u);
  EXPECT_GE(ladder.stats().resizes, 1u);
  EXPECT_LT(ladder.stats().bucket_width_ns, 64);
}

}  // namespace
}  // namespace mlid
