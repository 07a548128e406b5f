#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace mlid {
namespace {

// Every contract below must hold for both implementations -- the ladder
// queue's whole value proposition is that it is bit-interchangeable with
// the heap.
class EventQueueTest : public ::testing::TestWithParam<EventQueueKind> {
 protected:
  [[nodiscard]] EventQueue make() const { return EventQueue(GetParam()); }
};

TEST_P(EventQueueTest, PopsInTimeOrder) {
  EventQueue q = make();
  q.push(30, EventKind::kTryTx, 1);
  q.push(10, EventKind::kGenerate, 2);
  q.push(20, EventKind::kDeliver, 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, SimultaneousEventsPopInContentOrder) {
  EventQueue q = make();
  for (DeviceId dev = 10; dev-- > 0;) {
    q.push(5, EventKind::kTryTx, dev);
  }
  for (DeviceId dev = 0; dev < 10; ++dev) {
    EXPECT_EQ(q.pop().dev, dev);
  }
}

TEST_P(EventQueueTest, FullyTiedEventsPopInInsertionOrder) {
  // Equal content keys are commutative; seq keeps the order deterministic.
  EventQueue q = make();
  for (PacketId pkt = 0; pkt < 10; ++pkt) {
    q.push(5, EventKind::kCreditArrive, 3, 1, 0, pkt);
  }
  for (PacketId pkt = 0; pkt < 10; ++pkt) {
    EXPECT_EQ(q.pop().pkt, pkt);
  }
}

TEST_P(EventQueueTest, CarriesThePayload) {
  EventQueue q = make();
  q.push(7, EventKind::kHeadArrive, 42, 3, 2, 99);
  const Event e = q.pop();
  EXPECT_EQ(e.kind, EventKind::kHeadArrive);
  EXPECT_EQ(e.dev, 42u);
  EXPECT_EQ(int(e.port), 3);
  EXPECT_EQ(int(e.vl), 2);
  EXPECT_EQ(e.pkt, 99u);
}

TEST_P(EventQueueTest, PopEmptyThrows) {
  EventQueue q = make();
  EXPECT_THROW(q.pop(), ContractViolation);
}

TEST_P(EventQueueTest, PeekReturnsNextWithoutRemoving) {
  EventQueue q = make();
  EXPECT_EQ(q.peek(), nullptr);
  q.push(20, EventKind::kTryTx, 2);
  q.push(10, EventKind::kGenerate, 1);
  const Event* e = q.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->time, 10);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().dev, 1u);
  EXPECT_EQ(q.pop().dev, 2u);
}

TEST_P(EventQueueTest, SchedulingIntoThePastIsACodingError) {
  EventQueue q = make();
  q.push(100, EventKind::kGenerate, 0);
  (void)q.pop();
  EXPECT_THROW(q.push(50, EventKind::kGenerate, 0), ContractViolation);
}

TEST_P(EventQueueTest, PushAtTheLastPoppedTimestampIsLegal) {
  EventQueue q = make();
  q.push(100, EventKind::kGenerate, 1);
  (void)q.pop();
  q.push(100, EventKind::kTryTx, 2);  // same instant: fine, later seq
  EXPECT_EQ(q.pop().dev, 2u);
}

// Regression: events_processed() used to return the *scheduled* count
// (next_seq_), so manifests divided wall time by pushes, over-reporting
// events/sec whenever the end time cut the run off with work still queued.
TEST_P(EventQueueTest, ScheduledAndProcessedAreSeparateCounters) {
  EventQueue q = make();
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

TEST_P(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue q = make();
  q.push(10, EventKind::kGenerate, 1);
  q.push(20, EventKind::kGenerate, 2);
  EXPECT_EQ(q.pop().dev, 1u);
  q.push(15, EventKind::kGenerate, 3);
  q.push(12, EventKind::kGenerate, 4);
  EXPECT_EQ(q.pop().dev, 4u);
  EXPECT_EQ(q.pop().dev, 3u);
  EXPECT_EQ(q.pop().dev, 2u);
}

TEST_P(EventQueueTest, DrainUntilStopsAtTheBoundary) {
  EventQueue q = make();
  q.push(10, EventKind::kGenerate, 1);
  q.push(50, EventKind::kGenerate, 2);
  q.push(90, EventKind::kGenerate, 3);
  std::vector<DeviceId> seen;
  q.drain_until(90, [&](const Event& e) {
    seen.push_back(e.dev);
    if (e.dev == 1) q.push(60, EventKind::kTryTx, 4);  // scheduled mid-drain
  });
  EXPECT_EQ(seen, (std::vector<DeviceId>{1, 2, 4}));
  EXPECT_EQ(q.size(), 1u);  // the t=90 event is not strictly before 90
  EXPECT_EQ(q.events_processed(), 3u);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, EventQueueTest,
                         ::testing::Values(EventQueueKind::kHeap,
                                           EventQueueKind::kLadder),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- ladder-specific internals ----------------------------------------------

TEST(LadderInternals, FarFutureEventsGoThroughOverflowAndComeBackInOrder) {
  EventQueue q(EventQueueKind::kLadder);
  // Default horizon is 256 buckets x 64 ns = 16384 ns; 1e6 is far beyond.
  q.push(1'000'000, EventKind::kDeliver, 7);
  q.push(5, EventKind::kGenerate, 1);
  EXPECT_GT(q.stats().overflow_pushes, 0u);
  EXPECT_EQ(q.pop().dev, 1u);
  EXPECT_EQ(q.pop().dev, 7u);
  EXPECT_TRUE(q.empty());
}

TEST(LadderInternals, RingDoublesUnderLoadAndStaysOrdered) {
  EventQueue q(EventQueueKind::kLadder);
  const std::uint32_t before = q.stats().buckets;
  // Cram far more events into the horizon than kResizeLoad allows per
  // bucket; the ring must double (at least once) and lose nothing.
  constexpr int kEvents = 6000;
  for (int i = 0; i < kEvents; ++i) {
    q.push((i * 13) % 16'000, EventKind::kTryTx,
           static_cast<DeviceId>(i));
  }
  const EventQueueStats s = q.stats();
  EXPECT_GT(s.resizes, 0u);
  EXPECT_GT(s.buckets, before);
  SimTime prev = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = q.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
  EXPECT_TRUE(q.empty());
}

TEST(LadderInternals, StatsShapePerKind) {
  EventQueue heap(EventQueueKind::kHeap);
  heap.push(1, EventKind::kGenerate, 0);
  const EventQueueStats hs = heap.stats();
  EXPECT_EQ(hs.kind, EventQueueKind::kHeap);
  EXPECT_EQ(hs.buckets, 0u);
  EXPECT_EQ(hs.bucket_width_ns, 0);

  EventQueue ladder(EventQueueKind::kLadder);
  ladder.push(1, EventKind::kGenerate, 0);
  (void)ladder.pop();
  const EventQueueStats ls = ladder.stats();
  EXPECT_EQ(ls.kind, EventQueueKind::kLadder);
  EXPECT_GT(ls.buckets, 0u);
  EXPECT_EQ(ls.bucket_width_ns, 64);
  EXPECT_GT(ls.max_bucket_events, 0u);
}

// --- property test: the ladder IS the heap ----------------------------------

// Randomized push/pop streams exercised against both queues in lockstep:
// same-timestamp bursts, pushes landing exactly at last_popped_ (the active
// epoch's drain cursor), far-future overflow traffic and enough volume to
// force ring resizes.  Every pop must match field for field.
TEST(EventQueueParity, RandomizedStreamsPopIdentically) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    EventQueue heap(EventQueueKind::kHeap);
    EventQueue ladder(EventQueueKind::kLadder);
    Xoshiro256 rng(seed);
    SimTime now = 0;
    std::uint64_t pending = 0;
    for (int step = 0; step < 50'000; ++step) {
      const bool push = pending == 0 || rng.below(100) < 55;
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
        const auto dev = static_cast<DeviceId>(rng.below(1 << 20));
        heap.push(t, EventKind::kTryTx, dev);
        ladder.push(t, EventKind::kTryTx, dev);
        ++pending;
      } else {
        const Event a = heap.pop();
        const Event b = ladder.pop();
        ASSERT_EQ(a.time, b.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(a.seq, b.seq) << "seed " << seed << " step " << step;
        ASSERT_EQ(a.dev, b.dev);
        now = a.time;
        --pending;
      }
    }
    while (pending-- > 0) {
      const Event a = heap.pop();
      const Event b = ladder.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.dev, b.dev);
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(ladder.empty());
    // The stream was heavy enough to exercise every ladder tier.
    const EventQueueStats s = ladder.stats();
    EXPECT_GT(s.overflow_pushes, 0u);
    EXPECT_GT(s.max_bucket_events, 0u);
  }
}

}  // namespace
}  // namespace mlid
