// Log-bucketed latency histogram (HdrHistogram-style) and simple running
// statistics. Used by every benchmark harness to report averages and
// percentiles of simulated latencies.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace hpres {

/// Histogram over non-negative int64 values with bounded relative error.
///
/// Values below 2^6 are recorded exactly; every higher power-of-two octave
/// is split into 64 linear sub-buckets keyed by the six bits following the
/// leading bit, bounding relative error by 1/64 (~1.6%) — ample for latency
/// reporting.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 64

  LatencyHistogram() : counts_(kBucketCount, 0) {}

  void record(std::int64_t value) noexcept {
    if (value < 0) value = 0;
    ++counts_[bucket_index(static_cast<std::uint64_t>(value))];
    ++total_;
    sum_ = saturating_add(sum_, value);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
    sum_ = saturating_add(sum_, other.sum_);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void reset() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<std::int64_t>::max();
    max_ = std::numeric_limits<std::int64_t>::min();
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::int64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::int64_t min() const noexcept { return total_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const noexcept { return total_ ? max_ : 0; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
  }

  /// Value at quantile q in [0,1]: the representative (midpoint) value of
  /// the bucket containing the q-th sample, clamped to [min,max].
  [[nodiscard]] std::int64_t quantile(double q) const noexcept {
    if (total_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) {
        return std::clamp(saturating_midpoint(i), min_, max_);
      }
    }
    return max_;
  }

  [[nodiscard]] std::int64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::int64_t p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] std::int64_t p99() const noexcept { return quantile(0.99); }

  // --- Bucket introspection (metric export, property tests) ---------------

  /// Exact region [0, 64) plus 58 octaves (exponents 6..63) of 64
  /// sub-buckets.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  [[nodiscard]] static constexpr std::size_t bucket_count() noexcept {
    return kBucketCount;
  }

  /// Samples recorded into bucket `index`.
  [[nodiscard]] std::uint64_t count_at(std::size_t index) const noexcept {
    return counts_[index];
  }

  /// Bucket holding value `v`.
  static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int exp = 63 - std::countl_zero(v);  // >= kSubBucketBits
    const auto sub = static_cast<std::size_t>(
        (v >> (exp - kSubBucketBits)) & (kSubBuckets - 1));
    return static_cast<std::size_t>(kSubBuckets) +
           static_cast<std::size_t>(exp - kSubBucketBits) * kSubBuckets + sub;
  }

  /// Exact representative (midpoint) value of bucket `index`. Unsigned:
  /// top-octave (exponent 63) midpoints exceed int64 range — callers that
  /// need a recordable value use saturating_midpoint().
  static std::uint64_t bucket_midpoint(std::size_t index) noexcept {
    if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
    const std::size_t rel = index - kSubBuckets;
    const int exp = static_cast<int>(rel / kSubBuckets) + kSubBucketBits;
    const std::uint64_t sub = rel % kSubBuckets;
    const std::uint64_t low =
        (std::uint64_t{1} << exp) | (sub << (exp - kSubBucketBits));
    const std::uint64_t width = std::uint64_t{1} << (exp - kSubBucketBits);
    return low + width / 2;
  }

  /// Midpoint clamped into int64 range (recordable-value domain).
  static std::int64_t saturating_midpoint(std::size_t index) noexcept {
    const std::uint64_t mid = bucket_midpoint(index);
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    return mid > kMax ? std::numeric_limits<std::int64_t>::max()
                      : static_cast<std::int64_t>(mid);
  }

 private:
  /// Sum of two non-negative values, pinned at INT64_MAX instead of
  /// overflowing. Monotone, so merging still equals recording the union.
  static std::int64_t saturating_add(std::int64_t a, std::int64_t b) noexcept {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return b > kMax - a ? kMax : a + b;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Running scalar statistics (count/mean/min/max) without storing samples.
class RunningStats {
 public:
  void record(double x) noexcept {
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace hpres
