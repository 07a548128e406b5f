#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace mlid {
namespace {

TEST(OnlineStats, EmptyIsAllZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSinglePass) {
  Xoshiro256 rng(5);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 100.0;
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

/// Integer samples shaped like delivery latencies (ns), with a heavy tail.
std::vector<std::int64_t> latency_samples(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int64_t> xs(n);
  for (std::int64_t& x : xs) {
    const std::uint64_t range = rng.below(10) == 0 ? 400'000 : 900;
    x = static_cast<std::int64_t>(rng.below(range));
  }
  return xs;
}

ExactStats one_pass(const std::vector<std::int64_t>& xs) {
  ExactStats s;
  for (const std::int64_t x : xs) s.add(x);
  return s;
}

void expect_identical(const ExactStats& a, const ExactStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());  // bit-identical, not merely close
  EXPECT_EQ(a.max(), b.max());
}

TEST(ExactStats, EmptyIsAllZero) {
  const ExactStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.max(), 0);
}

TEST(ExactStats, KnownMoments) {
  ExactStats s;
  for (const std::int64_t x : {2, 4, 4, 4, 5, 5, 7, 9}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.max(), 9);
  ExactStats negative;
  negative.add(-7);
  negative.add(-3);
  EXPECT_EQ(negative.max(), -3);
}

TEST(ExactStats, ShuffledInputsGiveIdenticalMoments) {
  std::vector<std::int64_t> xs = latency_samples(5'000, 11);
  const ExactStats reference = one_pass(xs);
  Xoshiro256 rng(12);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(xs.begin(), xs.end(), rng);
    expect_identical(one_pass(xs), reference);
  }
}

TEST(ExactStats, ArbitrarySplitsMergeInAnyOrder) {
  const std::vector<std::int64_t> xs = latency_samples(5'000, 21);
  const ExactStats reference = one_pass(xs);
  Xoshiro256 rng(22);
  for (int round = 0; round < 20; ++round) {
    // Deal the samples into 1..8 parts at random, then merge the parts in
    // a random order -- the way shards fold into the root.
    std::vector<ExactStats> parts(1 + rng.below(8));
    for (const std::int64_t x : xs) parts[rng.below(parts.size())].add(x);
    std::shuffle(parts.begin(), parts.end(), rng);
    ExactStats merged;
    for (const ExactStats& part : parts) merged.merge(part);
    expect_identical(merged, reference);
  }
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);  // underflow
  h.add(0.0);
  h.add(0.999);
  h.add(5.0);
  h.add(9.999);
  h.add(10.0);  // overflow (half-open top)
  h.add(42.0);  // overflow
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[5], 1u);
  EXPECT_EQ(h.bins()[9], 1u);
}

TEST(Histogram, QuantileOfUniformFill) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.5);
  EXPECT_THROW(static_cast<void>(h.quantile(1.5)), ContractViolation);
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeOfHalvesEqualsOnePass) {
  // The range leaves samples on both sides, so underflow and overflow merge
  // too.
  Histogram whole(100.0, 200'000.0, 500);
  Histogram left(100.0, 200'000.0, 500);
  Histogram right(100.0, 200'000.0, 500);
  const std::vector<std::int64_t> xs = latency_samples(4'000, 31);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto x = static_cast<double>(xs[i]);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  ASSERT_GT(whole.underflow(), 0u);
  ASSERT_GT(whole.overflow(), 0u);
  right.merge(left);
  EXPECT_EQ(right.bins(), whole.bins());
  EXPECT_EQ(right.underflow(), whole.underflow());
  EXPECT_EQ(right.overflow(), whole.overflow());
  EXPECT_EQ(right.total(), whole.total());
  EXPECT_EQ(right.quantile(0.99), whole.quantile(0.99));
}

TEST(Histogram, MergeRejectsADifferentBinning) {
  Histogram a(0.0, 10.0, 10);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 20)), ContractViolation);
  EXPECT_THROW(a.merge(Histogram(0.0, 20.0, 10)), ContractViolation);
}

}  // namespace
}  // namespace mlid
