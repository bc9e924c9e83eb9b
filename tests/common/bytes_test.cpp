#include "common/bytes.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"

namespace hpres {
namespace {

TEST(Bytes, StringRoundTrip) {
  const Bytes b = to_bytes("hello kv");
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(to_string(b), "hello kv");
}

TEST(Bytes, PatternIsDeterministic) {
  EXPECT_EQ(make_pattern(1000, 5), make_pattern(1000, 5));
  EXPECT_NE(make_pattern(1000, 5), make_pattern(1000, 6));
}

TEST(Bytes, PatternPrefixStable) {
  // Same seed, different lengths: the 8-byte blocks shared by both lengths
  // match, so chunk-level verification of a longer value is possible.
  const Bytes a = make_pattern(64, 9);
  const Bytes b = make_pattern(128, 9);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(Bytes, SharedBytesIsOneWord) {
  EXPECT_EQ(sizeof(SharedBytes), sizeof(void*));
}

TEST(Bytes, SharedBytesAliasesWithoutCopy) {
  SharedBytes s = make_shared_bytes(make_pattern(100, 1));
  EXPECT_EQ(s.use_count(), 1u);
  {
    const SharedBytes alias = s;
    SharedBytes moved = alias;
    const SharedBytes taken = std::move(moved);
    EXPECT_EQ(moved, nullptr);
    EXPECT_EQ(alias, s);
    EXPECT_EQ(taken, s);
    EXPECT_EQ(s->data(), alias->data());
    EXPECT_EQ(s.use_count(), 3u);
  }
  // The copies dropped their references; the last one (test_sim_alloc's
  // SimAlloc.SharedBytesLastDropFrees counts it) frees the block.
  EXPECT_EQ(s.use_count(), 1u);
  s = nullptr;
  EXPECT_EQ(s.use_count(), 0u);
  EXPECT_TRUE(s.span().empty());
}

TEST(Bytes, SharedBytesAdoptsWithoutCopy) {
  Bytes b = make_pattern(100, 2);
  const std::byte* const data = b.data();
  const SharedBytes s = make_shared_bytes(std::move(b));
  EXPECT_EQ(s->data(), data);
  EXPECT_EQ(*s, make_pattern(100, 2));

  // An uninitialized block holds what was written into it.
  SharedBytes filled = SharedBytes::uninitialized(100);
  fill_pattern(filled.writable(), 2);
  EXPECT_EQ(*filled, *s);
  EXPECT_EQ(Bytes(*filled), make_pattern(100, 2));
}

TEST(Bytes, SharedBytesCopiedAndDroppedAcrossThreads) {
  const SharedBytes s = make_shared_bytes(make_pattern(64, 3));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&s] {
      for (int i = 0; i < 10'000; ++i) {
        const SharedBytes copy = s;
        ASSERT_EQ(copy->size(), 64u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(s.use_count(), 1u);
}

TEST(Units, TransferTimeMatchesLineRate) {
  // 1 KiB at 8 Gbps = 8192 bits / 8 bits-per-ns = 1024 ns.
  EXPECT_EQ(units::transfer_time_ns(1024, 8.0), 1024);
  // Rounds up on fractional ns.
  EXPECT_EQ(units::transfer_time_ns(1, 3.0), 3);  // 8/3 = 2.67 -> 3
  EXPECT_EQ(units::transfer_time_ns(0, 10.0), 0);
  EXPECT_EQ(units::transfer_time_ns(100, 0.0), 0);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(units::to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(units::to_s(3'000'000'000), 3.0);
}

}  // namespace
}  // namespace hpres
