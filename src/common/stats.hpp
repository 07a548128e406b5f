// Streaming statistics used by the simulator's metric collection.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/expect.hpp"

namespace mlid {

/// Welford online accumulator: mean / variance / extrema in O(1) memory.
class OnlineStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const OnlineStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double n = n1 + n2;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    mean_ = (n1 * mean_ + n2 * other.mean_) / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? mean_ : 0.0;
  }
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept {
    return count_ ? min_ : 0.0;
  }
  [[nodiscard]] double max() const noexcept {
    return count_ ? max_ : 0.0;
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact accumulator of integer samples: count, sum and maximum.  Integer
/// sums merge in any grouping and order to the same bits as one pass over
/// all samples, unlike OnlineStats, whose update depends on input order.
class ExactStats {
 public:
  void add(std::int64_t x) noexcept {
    ++count_;
    sum_ += x;
    max_ = std::max(max_, x);
  }
  void merge(const ExactStats& other) noexcept {
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  [[nodiscard]] std::int64_t max() const noexcept { return count_ ? max_ : 0; }

 private:
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Fixed-bin histogram with overflow bin; used for latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), bins_(bins, 0) {
    MLID_EXPECT(hi > lo, "histogram range must be non-empty");
    MLID_EXPECT(bins > 0, "histogram needs at least one bin");
  }

  void add(double x) noexcept {
    if (x < lo_) {
      ++underflow_;
    } else if (x >= hi_) {
      ++overflow_;
    } else {
      const auto idx = static_cast<std::size_t>(
          (x - lo_) / (hi_ - lo_) * static_cast<double>(bins_.size()));
      ++bins_[std::min(idx, bins_.size() - 1)];
    }
    ++total_;
  }

  /// Adds `other`'s counts, which must use the same binning.
  void merge(const Histogram& other) {
    MLID_EXPECT(lo_ == other.lo_ && hi_ == other.hi_ &&
                    bins_.size() == other.bins_.size(),
                "merging histograms with different binnings");
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bins() const noexcept {
    return bins_;
  }
  [[nodiscard]] double bin_lo(std::size_t i) const noexcept {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(bins_.size());
  }
  [[nodiscard]] double bin_hi(std::size_t i) const noexcept {
    return bin_lo(i + 1);
  }

  /// Approximate quantile (q in [0,1]) assuming uniform density per bin.
  [[nodiscard]] double quantile(double q) const {
    MLID_EXPECT(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (total_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_));
    std::uint64_t seen = underflow_;
    if (seen > target) return lo_;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      if (seen + bins_[i] > target) {
        const double frac =
            bins_[i] ? static_cast<double>(target - seen) /
                           static_cast<double>(bins_[i])
                     : 0.0;
        return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
      }
      seen += bins_[i];
    }
    return hi_;
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace mlid
