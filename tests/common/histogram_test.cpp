#include "common/histogram.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hpres {
namespace {

TEST(LatencyHistogram, EmptyIsZeroEverywhere) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 63);
  EXPECT_DOUBLE_EQ(h.mean(), 31.5);
  EXPECT_EQ(h.quantile(0.0), 0);
  EXPECT_EQ(h.quantile(1.0), 63);
}

TEST(LatencyHistogram, NegativeClampsToZero) {
  LatencyHistogram h;
  h.record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogram, QuantileRelativeErrorBounded) {
  LatencyHistogram h;
  Xoshiro256 rng(1);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 100'000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.next_below(50'000'000));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const auto exact =
        values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
    const auto approx = h.quantile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.03 * static_cast<double>(exact) + 1.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeCombinesPopulations) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(1'000'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1'000'000);
  EXPECT_EQ(a.quantile(0.25), 10);
  // p75 lands in the big bucket (within 1.6% relative error).
  EXPECT_NEAR(static_cast<double>(a.quantile(0.75)), 1'000'000.0, 20'000.0);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(123456);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p99(), 0);
}

TEST(LatencyHistogram, HugeValuesDoNotOverflowBuckets) {
  LatencyHistogram h;
  h.record(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(h.quantile(0.5), 0);
}

// --- Bucket-introspection properties (metric export correctness) -----------

TEST(LatencyHistogram, BucketMidpointRoundTripsThroughBucketIndex) {
  // Every bucket's representative value must land back in that bucket —
  // across the exact region and all 58 octaves, including the top octave
  // whose midpoints exceed int64 range.
  for (std::size_t i = 0; i < LatencyHistogram::bucket_count(); ++i) {
    const std::uint64_t mid = LatencyHistogram::bucket_midpoint(i);
    EXPECT_EQ(LatencyHistogram::bucket_index(mid), i) << "bucket " << i;
  }
}

TEST(LatencyHistogram, BucketMidpointsStrictlyIncrease) {
  for (std::size_t i = 1; i < LatencyHistogram::bucket_count(); ++i) {
    EXPECT_LT(LatencyHistogram::bucket_midpoint(i - 1),
              LatencyHistogram::bucket_midpoint(i))
        << "bucket " << i;
  }
}

TEST(LatencyHistogram, BucketIndexCoversFullUint64Domain) {
  // Octave boundaries and their neighbours map to valid, ordered buckets.
  std::vector<std::uint64_t> probes;
  for (int exp = 0; exp < 64; ++exp) {
    const std::uint64_t lo = std::uint64_t{1} << exp;
    probes.insert(probes.end(), {lo - 1, lo, lo + 1});
  }
  std::sort(probes.begin(), probes.end());
  std::size_t prev = 0;
  for (const std::uint64_t v : probes) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    ASSERT_LT(idx, LatencyHistogram::bucket_count()) << "v=" << v;
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = std::max(prev, idx);
  }
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<std::uint64_t>::max()),
            LatencyHistogram::bucket_count() - 1);
}

TEST(LatencyHistogram, SaturatingMidpointStaysRecordable) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 0; i < LatencyHistogram::bucket_count(); ++i) {
    const std::int64_t mid = LatencyHistogram::saturating_midpoint(i);
    EXPECT_GE(mid, 0) << "bucket " << i;
    if (LatencyHistogram::bucket_midpoint(i) <= kMax) {
      // Below the clamp point the saturating midpoint round-trips exactly.
      EXPECT_EQ(
          LatencyHistogram::bucket_index(static_cast<std::uint64_t>(mid)), i)
          << "bucket " << i;
    } else {
      // Past it, everything pins to the largest recordable value.
      EXPECT_EQ(mid, std::numeric_limits<std::int64_t>::max())
          << "bucket " << i;
    }
  }
}

TEST(LatencyHistogram, QuantileIsMonotoneInQ) {
  LatencyHistogram h;
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    // Long-tailed population spanning many octaves.
    const int shift = static_cast<int>(rng.next_below(40));
    h.record(static_cast<std::int64_t>(rng.next_below(
        (std::uint64_t{1} << shift) + 1)));
  }
  std::int64_t prev = h.quantile(0.0);
  for (int step = 1; step <= 100; ++step) {
    const std::int64_t q = h.quantile(static_cast<double>(step) / 100.0);
    EXPECT_GE(q, prev) << "step " << step;
    // Every quantile is clamped into the observed range.
    EXPECT_GE(q, h.min()) << "step " << step;
    EXPECT_LE(q, h.max()) << "step " << step;
    prev = q;
  }
}

TEST(LatencyHistogram, MergeEqualsRecordingTheUnion) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram u;
  Xoshiro256 rng(21);
  for (int i = 0; i < 5'000; ++i) {
    const auto v = static_cast<std::int64_t>(
        rng.next_below(std::uint64_t{1} << (1 + rng.next_below(62))));
    if (i % 3 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    u.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), u.count());
  EXPECT_EQ(a.sum(), u.sum());
  EXPECT_EQ(a.min(), u.min());
  EXPECT_EQ(a.max(), u.max());
  for (std::size_t i = 0; i < LatencyHistogram::bucket_count(); ++i) {
    ASSERT_EQ(a.count_at(i), u.count_at(i)) << "bucket " << i;
  }
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), u.quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, SumSaturatesInsteadOfOverflowing) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  LatencyHistogram h;
  h.record(kMax);
  h.record(kMax);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), kMax);
  LatencyHistogram merged;
  merged.merge(h);
  merged.merge(h);
  EXPECT_EQ(merged.sum(), kMax);
}

TEST(LatencyHistogram, MergeIntoEmptyPreservesEverything) {
  LatencyHistogram a;
  LatencyHistogram b;
  b.record(42);
  b.record(1'000'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 42);
  EXPECT_EQ(a.max(), 1'000'000);
  // Merging an empty histogram is the identity.
  const std::int64_t p50_before = a.p50();
  a.merge(LatencyHistogram{});
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.p50(), p50_before);
}

TEST(RunningStats, TracksMoments) {
  RunningStats s;
  s.record(1.0);
  s.record(2.0);
  s.record(9.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

}  // namespace
}  // namespace hpres
