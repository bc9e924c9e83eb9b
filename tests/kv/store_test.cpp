// Storage engine: LRU eviction, capacity accounting, chunk metadata, and a
// differential check of the compact index against a std::map + std::list
// reference model.
#include "kv/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

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

TEST(Store, ChunkMetadataRoundTripsAtFieldLimits) {
  // The widest fields a fragment carries: a value past 4 GiB, the last of
  // 16 slots, and k + m = ec::kMaxSlots.
  const ChunkInfo info{5ull << 30, 15, 12, 4};
  constexpr std::size_t kItem =
      64 + 1 + StorageEngine::kItemOverhead + sizeof(ChunkInfo);
  StorageEngine store(kItem);
  store.enable_ssd(SsdConfig{kItem});
  const auto check = [&](bool from_ssd) {
    const auto got = store.get("c");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->chunk, std::optional<ChunkInfo>(info));
    EXPECT_EQ(got->from_ssd, from_ssd);
  };
  ASSERT_TRUE(store.set("c", value_of(64), info).ok());
  check(false);
  ASSERT_TRUE(store.set("c", value_of(64, 2), info).ok());  // in place
  check(false);
  ASSERT_TRUE(store.set("d", value_of(64), ChunkInfo{}).ok());
  ASSERT_EQ(store.stats().demotions, 1u);  // "c" lives only on the SSD
  check(true);                             // promoted back
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_EQ(store.keys(), (std::vector<Key>{"c"}));
  check(false);
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
  EXPECT_EQ(got->value, v);  // the same block, not a copy
  EXPECT_EQ(v.use_count(), 3u);
}

// --- Differential check against a reference model --------------------------

std::size_t size_of(const SharedBytes& value) {
  return value ? value->size() : 0;
}

/// The store's contract in its plainest form: per tier, a std::map of items
/// and a std::list of keys in LRU order (front = most recent).
struct ModelStore {
  struct Item {
    SharedBytes value;
    std::optional<ChunkInfo> chunk;
    std::size_t charge = 0;
  };
  struct Tier {
    std::map<Key, Item> items;
    std::list<Key> lru;
    std::map<Key, std::list<Key>::iterator> lru_pos;  ///< each key in lru
    std::uint64_t used = 0;

    void push_front(const Key& key, Item item) {
      used += item.charge;
      lru.push_front(key);
      lru_pos.emplace(key, lru.begin());
      items.emplace(key, std::move(item));
    }
    Item take(const Key& key) {
      const auto it = items.find(key);
      Item item = std::move(it->second);
      items.erase(it);
      lru.erase(lru_pos.at(key));
      lru_pos.erase(key);
      used -= item.charge;
      return item;
    }
    bool erase(const Key& key) {
      if (!items.contains(key)) return false;
      take(key);
      return true;
    }
  };

  std::uint64_t capacity = 0;
  std::uint64_t ssd_capacity = 0;
  Tier mem;
  Tier ssd;
  StoreStats stats;

  void evict_one() {
    ++stats.evictions;
    const Key key = mem.lru.back();
    Item item = mem.take(key);
    if (ssd_capacity == 0 || item.charge > ssd_capacity) {
      stats.evicted_bytes += size_of(item.value);
      return;
    }
    while (ssd.used + item.charge > ssd_capacity) {
      ++stats.evictions;
      const Key victim = ssd.lru.back();
      stats.evicted_bytes += size_of(ssd.take(victim).value);
    }
    ++stats.demotions;
    stats.demoted_bytes += size_of(item.value);
    ssd.push_front(key, std::move(item));
  }

  StatusCode set(const Key& key, SharedBytes value,
                 std::optional<ChunkInfo> chunk) {
    ++stats.set_ops;
    const std::size_t charge = key.size() + size_of(value) +
                               StorageEngine::kItemOverhead +
                               (chunk ? sizeof(ChunkInfo) : 0);
    if (charge > capacity) {
      ++stats.rejected_sets;
      erase(key);
      return StatusCode::kOutOfMemory;
    }
    // An overwritten item leaves the LRU before room is made, so it is
    // never its own victim.
    erase(key);
    while (mem.used + charge > capacity) evict_one();
    mem.push_front(key, Item{std::move(value), chunk, charge});
    return StatusCode::kOk;
  }

  Result<StorageEngine::GetResult> get(const Key& key) {
    ++stats.get_ops;
    if (const auto it = mem.items.find(key); it != mem.items.end()) {
      ++stats.hits;
      mem.lru.splice(mem.lru.begin(), mem.lru, mem.lru_pos.at(key));
      return StorageEngine::GetResult{it->second.value, it->second.chunk,
                                      false};
    }
    if (!ssd.items.contains(key)) {
      ++stats.misses;
      return Status{StatusCode::kNotFound};
    }
    ++stats.hits;
    ++stats.ssd_hits;
    ++stats.promotions;
    Item item = ssd.take(key);
    StorageEngine::GetResult out{item.value, item.chunk, true};
    while (mem.used + item.charge > capacity && !mem.lru.empty()) {
      evict_one();
    }
    mem.push_front(key, std::move(item));
    return out;
  }

  bool erase(const Key& key) { return mem.erase(key) || ssd.erase(key); }

  void clear() {
    mem = Tier{};
    ssd = Tier{};
  }
};

std::array<std::uint64_t, 11> fields(const StoreStats& s) {
  return {s.set_ops,   s.get_ops,       s.hits,          s.misses,
          s.evictions, s.evicted_bytes, s.rejected_sets, s.demotions,
          s.demoted_bytes, s.promotions, s.ssd_hits};
}

/// Keys of every stored shape: 1 byte, exactly the 19 inline bytes, one
/// past them, 22, 23 and 200 bytes, and fragment keys.
std::vector<Key> differential_keys() {
  std::vector<Key> keys;
  for (char c = 'a'; c <= 'z'; ++c) keys.emplace_back(1, c);
  for (const std::size_t len : {19u, 20u, 22u, 23u, 200u}) {
    for (int i = 0; i < 40; ++i) {
      Key key = std::to_string(len) + "/" + std::to_string(i) + "/";
      key.resize(len, 'x');
      keys.push_back(key);
    }
  }
  for (int i = 0; i < 30; ++i) {
    for (std::size_t slot = 0; slot < 5; ++slot) {
      keys.push_back(chunk_key("user" + std::to_string(1000 + i), slot));
    }
  }
  return keys;
}

void run_differential(std::uint64_t seed, std::uint64_t ssd_capacity) {
  constexpr std::uint64_t kCapacity = 16 * 1024;
  const std::vector<Key> keys = differential_keys();
  StorageEngine store(kCapacity);
  ModelStore model;
  model.capacity = kCapacity;
  if (ssd_capacity > 0) {
    store.enable_ssd(SsdConfig{ssd_capacity});
    model.ssd_capacity = ssd_capacity;
  }
  Xoshiro256 rng(seed);
  std::size_t peak_items = 0;
  const auto random_value = [&](std::size_t max_size) -> SharedBytes {
    if (rng.next_below(50) == 0) return nullptr;
    return make_shared_bytes(make_pattern(rng.next_below(max_size + 1),
                                          rng()));
  };
  const auto random_chunk = [&]() -> std::optional<ChunkInfo> {
    if (rng.next_below(2) == 0) return std::nullopt;
    return ChunkInfo{rng.next_below(1 << 20),
                     static_cast<std::uint32_t>(rng.next_below(6)), 4, 2};
  };

  for (int step = 0; step < 20'000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const Key& key = keys[rng.next_below(keys.size())];
    const std::uint64_t dice = rng.next_below(1000);
    if (dice < 380) {  // set, mostly small so the tiers hold many entries
      const SharedBytes value =
          random_value(rng.next_below(10) == 0 ? 2000 : 80);
      const auto chunk = random_chunk();
      ASSERT_EQ(store.set(key, value, chunk).code(),
                model.set(key, value, chunk));
    } else if (dice < 480) {  // overwrite of a resident key
      if (model.mem.lru.empty()) continue;
      auto it = model.mem.lru.begin();
      std::advance(it, rng.next_below(model.mem.lru.size()));
      const Key resident = *it;
      const SharedBytes value = random_value(120);
      const auto chunk = random_chunk();
      ASSERT_EQ(store.set(resident, value, chunk).code(),
                model.set(resident, value, chunk));
    } else if (dice < 860) {
      const auto got = store.get(key);
      const auto want = model.get(key);
      ASSERT_EQ(got.status().code(), want.status().code());
      if (want.ok()) {
        EXPECT_EQ(got->value, want->value);
        EXPECT_EQ(got->chunk, want->chunk);
        EXPECT_EQ(got->from_ssd, want->from_ssd);
      }
    } else if (dice < 970) {
      ASSERT_EQ(store.erase(key), model.erase(key));
    } else if (dice < 998) {  // oversize: rejected, drops any old value
      const SharedBytes value = make_shared_bytes(
          make_pattern(kCapacity + rng.next_below(500), rng()));
      ASSERT_EQ(store.set(key, value, std::nullopt).code(),
                model.set(key, value, std::nullopt));
    } else {
      store.clear();
      model.clear();
    }
    ASSERT_EQ(fields(store.stats()), fields(model.stats));
    ASSERT_EQ(store.bytes_used(), model.mem.used);
    ASSERT_EQ(store.ssd_bytes_used(), model.ssd.used);
    ASSERT_EQ(store.items(), model.mem.items.size());
    peak_items = std::max(peak_items, store.items());
    ASSERT_EQ(store.keys(),
              std::vector<Key>(model.mem.lru.begin(), model.mem.lru.end()));
  }
  const StoreStats& stats = store.stats();
  EXPECT_GT(peak_items, 64u);  // entries spanned several pages
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.rejected_sets, 0u);
  if (ssd_capacity > 0) {
    EXPECT_GT(stats.demotions, 0u);
    EXPECT_GT(stats.promotions, 0u);
  }
}

TEST(StoreDifferential, MatchesReferenceModelWithoutSsd) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) run_differential(seed, 0);
}

TEST(StoreDifferential, MatchesReferenceModelWithSsd) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_differential(seed, 8 * 1024);
  }
}

TEST(StoreDifferential, MatchesReferenceModelAtHighLoad) {
  // Nothing is evicted, so the index only grows: about 30k fragment keys
  // under a mostly-Set mix carry the probe table through every 7/8 growth
  // threshold up to 14,336 items, and Erases keep running backward-shift
  // deletion just below each one and at about 80% load at the end.
  constexpr std::uint64_t kCapacity = std::uint64_t{1} << 30;
  std::vector<Key> keys;
  for (int i = 0; i < 6000; ++i) {
    Key base = "user" + std::to_string(100000000000 + i);
    ASSERT_EQ(base.size(), 16u);  // a YCSB key
    for (std::size_t slot = 0; slot < 5; ++slot) {
      keys.push_back(chunk_key(base, slot));
    }
  }
  StorageEngine store(kCapacity);
  ModelStore model;
  model.capacity = kCapacity;
  const SharedBytes value = value_of(16);
  Xoshiro256 rng(7);
  std::size_t peak_items = 0;
  for (int step = 0; step < 150'000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Key& key = keys[rng.next_below(keys.size())];
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 55) {
      const ChunkInfo chunk{rng.next_below(1 << 20),
                            static_cast<std::uint32_t>(rng.next_below(5)), 3,
                            2};
      ASSERT_EQ(store.set(key, value, chunk).code(),
                model.set(key, value, chunk));
    } else if (dice < 60) {
      ASSERT_EQ(store.erase(key), model.erase(key));
    } else {
      const auto got = store.get(key);
      const auto want = model.get(key);
      ASSERT_EQ(got.status().code(), want.status().code());
      if (want.ok()) {
        EXPECT_EQ(got->chunk, want->chunk);
      }
    }
    ASSERT_EQ(fields(store.stats()), fields(model.stats));
    ASSERT_EQ(store.bytes_used(), model.mem.used);
    ASSERT_EQ(store.items(), model.mem.items.size());
    peak_items = std::max(peak_items, store.items());
    if (step % 1000 == 999) {
      ASSERT_EQ(store.keys(),
                std::vector<Key>(model.mem.lru.begin(), model.mem.lru.end()));
    }
  }
  EXPECT_GT(peak_items, 14'336u);  // past the 16,384-slot table's 7/8
  EXPECT_EQ(store.stats().evictions, 0u);
}

}  // namespace
}  // namespace hpres::kv
