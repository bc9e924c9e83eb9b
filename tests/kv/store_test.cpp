// Storage engine: LRU eviction, capacity accounting, chunk metadata.
#include "kv/store.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"

namespace hpres::kv {
namespace {

SharedBytes value_of(std::size_t size, std::uint64_t seed = 1) {
  return make_shared_bytes(make_pattern(size, seed));
}

TEST(Store, SetGetRoundTrip) {
  StorageEngine store(1 << 20);
  const auto v = value_of(100);
  ASSERT_TRUE(store.set("k", v).ok());
  const auto got = store.get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value->size(), 100u);
  EXPECT_EQ(*got->value, *v);
}

TEST(Store, MissReturnsNotFound) {
  StorageEngine store(1 << 20);
  EXPECT_EQ(store.get("absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(Store, OverwriteReplacesAndReaccounts) {
  StorageEngine store(1 << 20);
  ASSERT_TRUE(store.set("k", value_of(100)).ok());
  const auto used_small = store.bytes_used();
  ASSERT_TRUE(store.set("k", value_of(5000)).ok());
  EXPECT_EQ(store.items(), 1u);
  EXPECT_EQ(store.bytes_used(), used_small - 100 + 5000);
  EXPECT_EQ(store.get("k")->value->size(), 5000u);
}

TEST(Store, EraseFreesSpace) {
  StorageEngine store(1 << 20);
  ASSERT_TRUE(store.set("k", value_of(100)).ok());
  EXPECT_TRUE(store.erase("k"));
  EXPECT_FALSE(store.erase("k"));
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.items(), 0u);
}

TEST(Store, EvictsLeastRecentlyUsed) {
  // Capacity fits ~3 items of 1000B (plus overhead).
  StorageEngine store(3 * (1000 + 1 + StorageEngine::kItemOverhead));
  ASSERT_TRUE(store.set("a", value_of(1000)).ok());
  ASSERT_TRUE(store.set("b", value_of(1000)).ok());
  ASSERT_TRUE(store.set("c", value_of(1000)).ok());
  // Touch "a" so "b" becomes LRU.
  ASSERT_TRUE(store.get("a").ok());
  ASSERT_TRUE(store.set("d", value_of(1000)).ok());
  EXPECT_TRUE(store.get("a").ok());
  EXPECT_EQ(store.get("b").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.get("c").ok());
  EXPECT_TRUE(store.get("d").ok());
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().evicted_bytes, 1000u);
}

TEST(Store, RejectsItemLargerThanCapacity) {
  StorageEngine store(500);
  const Status s = store.set("big", value_of(1000));
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(store.stats().rejected_sets, 1u);
  EXPECT_EQ(store.items(), 0u);
}

TEST(Store, RejectedOverwriteDropsStaleValue) {
  StorageEngine store(2000);
  ASSERT_TRUE(store.set("k", value_of(100)).ok());
  EXPECT_EQ(store.set("k", value_of(5000)).code(), StatusCode::kOutOfMemory);
  // The writer meant to replace the old bytes: serving them would be stale.
  EXPECT_EQ(store.get("k").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.items(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.stats().rejected_sets, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(Store, OverwriteUnderPressureEvictsOthersInLruOrder) {
  constexpr std::size_t kItem = 1000 + 1 + StorageEngine::kItemOverhead;
  StorageEngine store(4 * kItem);
  // "b" is the least recently used when it is overwritten.
  for (const char* key : {"b", "a", "c", "d"}) {
    ASSERT_TRUE(store.set(key, value_of(1000)).ok());
  }
  const auto bigger = value_of(2500, 7);
  ASSERT_TRUE(store.set("b", bigger).ok());
  // Room came from "a" then "c", never from "b" itself, which is now the
  // most recent key.
  EXPECT_EQ(store.keys(), (std::vector<Key>{"b", "d"}));
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_EQ(store.stats().evicted_bytes, 2000u);
  EXPECT_EQ(store.bytes_used(),
            kItem + 2500 + 1 + StorageEngine::kItemOverhead);
  const auto got = store.get("b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got->value, *bigger);
}

TEST(Store, OverwriteOfDemotedKeyDropsSsdCopy) {
  constexpr std::size_t kItem = 1000 + 1 + StorageEngine::kItemOverhead;
  StorageEngine store(2 * kItem);
  store.enable_ssd(SsdConfig{10 * kItem});
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(store.set(key, value_of(1000)).ok());
  }
  ASSERT_EQ(store.stats().demotions, 1u);  // "a" lives only on the SSD now
  const auto fresh = value_of(1000, 9);
  ASSERT_TRUE(store.set("a", fresh).ok());
  // The SSD copy of "a" is gone, and making room demoted "b".
  EXPECT_EQ(store.keys(), (std::vector<Key>{"a", "c"}));
  EXPECT_EQ(store.stats().demotions, 2u);
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_EQ(store.bytes_used(), 2 * kItem);
  EXPECT_EQ(store.ssd_bytes_used(), kItem);
  const auto got = store.get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->from_ssd);
  EXPECT_EQ(*got->value, *fresh);
  const auto demoted = store.get("b");
  ASSERT_TRUE(demoted.ok());
  EXPECT_TRUE(demoted->from_ssd);
}

TEST(Store, EvictionCascadeMakesRoomForLargeItem) {
  StorageEngine store(10'000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.set("k" + std::to_string(i), value_of(1000)).ok());
  }
  // An 8000B item forces several evictions but fits.
  ASSERT_TRUE(store.set("large", value_of(8000)).ok());
  EXPECT_TRUE(store.get("large").ok());
  EXPECT_LE(store.bytes_used(), store.capacity());
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(Store, ChunkMetadataRoundTrips) {
  StorageEngine store(1 << 20);
  const ChunkInfo info{123456, 2, 3, 2};
  ASSERT_TRUE(store.set("c", value_of(64), info).ok());
  const auto got = store.get("c");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->chunk.has_value());
  EXPECT_EQ(*got->chunk, info);
}

TEST(Store, StatsTrackHitsAndOps) {
  StorageEngine store(1 << 20);
  ASSERT_TRUE(store.set("k", value_of(10)).ok());
  (void)store.get("k");
  (void)store.get("k");
  (void)store.get("nope");
  EXPECT_EQ(store.stats().set_ops, 1u);
  EXPECT_EQ(store.stats().get_ops, 3u);
  EXPECT_EQ(store.stats().hits, 2u);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(Store, ValueSharingAvoidsCopies) {
  StorageEngine store(1 << 20);
  const auto v = value_of(100);
  ASSERT_TRUE(store.set("k", v).ok());
  const auto got = store.get("k");
  EXPECT_EQ(got->value.get(), v.get());  // same buffer, not a copy
}

}  // namespace
}  // namespace hpres::kv
