// LatencyRecorder: log-bucketed percentile accuracy against exact sorted
// quantiles, edge cases (empty, single sample, bucket boundaries), tail
// sampling semantics, and the O(1)-memory-per-label bound.
#include "obs/latency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/histogram.h"

namespace hpres::obs {
namespace {

/// Deterministic 64-bit LCG (no std::random in tests: identical sequences
/// on every platform).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 17U;
  }
  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Exact quantile with the histogram's rank convention:
/// sorted[floor(q * (n - 1))].
std::int64_t exact_quantile(std::vector<std::int64_t> sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// One bucket's relative error: the histogram reports the midpoint of the
/// bucket holding the ranked sample, so the error is bounded by the bucket
/// width: width <= value / kSubBuckets for values past the first bucket run,
/// and 1 ns below it.
void expect_within_bucket_error(std::int64_t approx, std::int64_t exact,
                                const char* what) {
  const double tol = std::max(
      1.0, static_cast<double>(exact) /
               static_cast<double>(LatencyHistogram::kSubBuckets));
  EXPECT_LE(std::abs(static_cast<double>(approx - exact)), tol)
      << what << ": approx=" << approx << " exact=" << exact;
}

void check_quantiles_against_exact(const std::vector<std::int64_t>& samples) {
  LatencyRecorder rec;
  for (const std::int64_t v : samples) rec.record("get", "era", false, v);

  std::vector<std::int64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  const std::vector<LatencyRow> rows = rec.rows();
  ASSERT_EQ(rows.size(), 1u);
  const LatencyRow& row = rows[0];
  EXPECT_EQ(row.count, samples.size());
  expect_within_bucket_error(row.p50_ns, exact_quantile(sorted, 0.50), "p50");
  expect_within_bucket_error(row.p95_ns, exact_quantile(sorted, 0.95), "p95");
  expect_within_bucket_error(row.p99_ns, exact_quantile(sorted, 0.99), "p99");
  expect_within_bucket_error(row.p999_ns, exact_quantile(sorted, 0.999),
                             "p999");
  // max is tracked exactly, outside the bucketing.
  EXPECT_EQ(row.max_ns, sorted.back());
}

TEST(LatencyRecorder, UniformSamplesMatchExactQuantiles) {
  Lcg rng(1);
  std::vector<std::int64_t> samples;
  samples.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) samples.push_back(rng.uniform(100, 5'000'000));
  check_quantiles_against_exact(samples);
}

TEST(LatencyRecorder, HeavyTailSamplesMatchExactQuantiles) {
  // Log-uniform across six decades: the regime percentile engines exist for.
  Lcg rng(2);
  std::vector<std::int64_t> samples;
  samples.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) {
    const double exponent = 2.0 + 6.0 * static_cast<double>(rng.next() % 10'000) / 10'000.0;
    samples.push_back(static_cast<std::int64_t>(std::pow(10.0, exponent)));
  }
  check_quantiles_against_exact(samples);
}

TEST(LatencyRecorder, BucketBoundaryValuesMatchExactQuantiles) {
  // Powers of two and their neighbours land exactly on sub-bucket edges.
  std::vector<std::int64_t> samples;
  for (int k = 0; k < 40; ++k) {
    const std::int64_t v = std::int64_t{1} << k;
    samples.push_back(v - 1);
    samples.push_back(v);
    samples.push_back(v + 1);
  }
  check_quantiles_against_exact(samples);
}

TEST(LatencyRecorder, ConstantSamplesAreExact) {
  LatencyRecorder rec;
  for (int i = 0; i < 1'000; ++i) rec.record("get", "era", false, 12'345);
  const std::vector<LatencyRow> rows = rec.rows();
  ASSERT_EQ(rows.size(), 1u);
  // All quantiles clamp into [min, max] = [12345, 12345]: exact.
  EXPECT_EQ(rows[0].p50_ns, 12'345);
  EXPECT_EQ(rows[0].p999_ns, 12'345);
  EXPECT_EQ(rows[0].max_ns, 12'345);
}

TEST(LatencyRecorder, EmptyAndSingleSample) {
  LatencyRecorder empty;
  EXPECT_TRUE(empty.rows().empty());
  EXPECT_EQ(empty.label_count(), 0u);
  EXPECT_TRUE(empty.kept_traces().empty());

  LatencyRecorder one;
  one.record("set", "rep", false, 777);
  const std::vector<LatencyRow> rows = one.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[0].p50_ns, 777);
  EXPECT_EQ(rows[0].p999_ns, 777);
  EXPECT_EQ(rows[0].max_ns, 777);
}

TEST(LatencyRecorder, LabelsSeparateAndSortDeterministically) {
  LatencyRecorder rec;
  rec.record("set", "era", false, 10);
  rec.record("get", "era", true, 30);
  rec.record("get", "era", false, 20);
  const std::vector<LatencyRow> rows = rec.rows();
  ASSERT_EQ(rows.size(), 3u);
  // std::map key order: ("get", era, false), ("get", era, true), ("set", ...).
  EXPECT_EQ(rows[0].key.op, "get");
  EXPECT_FALSE(rows[0].key.degraded);
  EXPECT_EQ(rows[1].key.op, "get");
  EXPECT_TRUE(rows[1].key.degraded);
  EXPECT_EQ(rows[2].key.op, "set");
}

TEST(LatencyRecorder, PooledMergesOneOpOverSchemeAndDegraded) {
  LatencyRecorder rec;
  rec.record("get", "era", false, 20);
  rec.record("get", "era", true, 30);
  rec.record("get", "rep", false, 40);
  rec.record("set", "era", false, 10);
  const LatencyHistogram gets = rec.pooled("get");
  EXPECT_EQ(gets.count(), 3u);
  EXPECT_EQ(gets.sum(), 90);
  EXPECT_EQ(gets.min(), 20);
  EXPECT_EQ(gets.max(), 40);
  EXPECT_EQ(gets.p50(), 30);
  EXPECT_EQ(rec.pooled("set").count(), 1u);
  EXPECT_EQ(rec.pooled("del").count(), 0u);
}

TEST(LatencyRecorder, TailKeepsThresholdHitsAndSlowestReservoir) {
  LatencyRecorder rec;
  rec.set_tail({/*threshold_ns=*/1'000'000, /*keep_slowest=*/3});
  // Trace ids 1..100 with latency = id us; only 2 exceed the 1 ms threshold,
  // and the slowest-3 reservoir holds {98, 99, 100}.
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto lat = static_cast<SimDur>(id * 10'000);
    rec.record("get", "era", false, lat, id);
  }
  const std::unordered_set<std::uint64_t> kept = rec.kept_traces();
  EXPECT_TRUE(kept.contains(100));
  EXPECT_TRUE(kept.contains(99));
  EXPECT_TRUE(kept.contains(98));
  EXPECT_FALSE(kept.contains(50));
  // Threshold hits: 99 (990 us) is below 1 ms, 100 hits exactly 1 ms.
  EXPECT_LE(kept.size(), 3u + 1u);
}

TEST(LatencyRecorder, UntracedOpsNeverEnterTailSets) {
  LatencyRecorder rec;
  rec.set_tail({/*threshold_ns=*/1, /*keep_slowest=*/8});
  for (int i = 0; i < 100; ++i) rec.record("get", "era", false, 1'000'000, 0);
  EXPECT_TRUE(rec.kept_traces().empty());
}

// Acceptance invariant: memory per label set is O(1) — the histogram is a
// fixed bucket array and the tail sets are hard-bounded — no matter how many
// ops are recorded.
TEST(LatencyRecorder, MemoryPerLabelIsBounded) {
  LatencyRecorder rec;
  rec.set_tail({/*threshold_ns=*/1, /*keep_slowest=*/16});
  const LatencyKey key{"get", "era", false};
  for (std::uint64_t id = 1; id <= 200'000; ++id) {
    rec.record("get", "era", false, static_cast<SimDur>(id), id);
  }
  EXPECT_EQ(rec.label_count(), 1u);
  // Every op beat the (absurdly low) threshold, yet the kept set is capped.
  EXPECT_LE(rec.kept_count(key),
            LatencyRecorder::kMaxThresholdKept + 16u);
  // And the histogram keeps exact counts regardless.
  const LatencyHistogram* hist = rec.histogram(key);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 200'000u);
}

TEST(LatencyRecorder, MergeCombinesCountsAndTails) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.set_tail({/*threshold_ns=*/500, /*keep_slowest=*/2});
  b.set_tail({/*threshold_ns=*/500, /*keep_slowest=*/2});
  a.record("get", "era", false, 100, 1);
  a.record("get", "era", false, 900, 2);  // over threshold
  b.record("get", "era", false, 300, 3);
  b.record("get", "era", true, 800, 4);  // over threshold, new label

  a.merge(b);
  const std::vector<LatencyRow> rows = a.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].count, 3u);  // healthy gets: 100, 900, 300
  EXPECT_EQ(rows[1].count, 1u);  // degraded get
  const std::unordered_set<std::uint64_t> kept = a.kept_traces();
  EXPECT_TRUE(kept.contains(2));
  EXPECT_TRUE(kept.contains(4));

  a.clear();
  EXPECT_EQ(a.label_count(), 0u);
  EXPECT_TRUE(a.rows().empty());
}

}  // namespace
}  // namespace hpres::obs
