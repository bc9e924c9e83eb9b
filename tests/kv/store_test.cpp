// Storage engine: LRU eviction, capacity accounting, fragment identity and
// metadata, and a differential check of the compact index against a
// std::map + std::list reference model.
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
  EXPECT_EQ(store.keys(), (std::vector<ItemId>{{"b"}, {"d"}}));
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
  EXPECT_EQ(store.keys(), (std::vector<ItemId>{{"a"}, {"c"}}));
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
  const ChunkInfo info{123456};
  ASSERT_TRUE(store.set("c", 2, value_of(64), info).ok());
  const auto got = store.get("c", 2);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->chunk.has_value());
  EXPECT_EQ(*got->chunk, info);
  // Another slot of the same base key, and its whole value, are other
  // items.
  EXPECT_FALSE(store.get("c", 1).ok());
  EXPECT_FALSE(store.get("c").ok());
}

TEST(Store, ChunkMetadataRoundTripsAtFieldLimits) {
  // The widest fields a fragment carries: a value of 4 GiB - 1 bytes and
  // the last of ec::kMaxSlots slots.
  const ChunkInfo info{UINT32_MAX};
  constexpr std::uint8_t kLast = 15;
  constexpr std::size_t kItem = 64 + 1 + StorageEngine::kItemOverhead +
                                kSlotKeyBytes + kChunkInfoBytes;
  StorageEngine store(kItem);
  store.enable_ssd(SsdConfig{kItem});
  const auto check = [&](bool from_ssd) {
    const auto got = store.get("c", kLast);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->chunk, std::optional<ChunkInfo>(info));
    EXPECT_EQ(got->from_ssd, from_ssd);
  };
  ASSERT_TRUE(store.set("c", kLast, value_of(64), info).ok());
  check(false);
  ASSERT_TRUE(store.set("c", kLast, value_of(64, 2), info).ok());  // in place
  check(false);
  ASSERT_TRUE(store.set("d", 0, value_of(64), ChunkInfo{}).ok());
  ASSERT_EQ(store.stats().demotions, 1u);  // "c" lives only on the SSD
  check(true);                             // promoted back
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_EQ(store.keys(), (std::vector<ItemId>{{"c", kLast}}));
  check(false);
}

TEST(Store, RejectsOriginalSizeAbove32Bits) {
  StorageEngine store(1 << 20);
  ASSERT_TRUE(store.set("c", 1, value_of(64), ChunkInfo{1}).ok());
  // A refused write leaves the resident fragment as it was.
  EXPECT_EQ(store.set("c", 1, value_of(64), ChunkInfo{1ull << 32}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.get("c", 1)->chunk, std::optional<ChunkInfo>(ChunkInfo{1}));
  EXPECT_EQ(store.set("d", 1, value_of(64), ChunkInfo{5ull << 30}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.items(), 1u);
}

TEST(Store, FragmentsCarryChunkInfoAndWholeValuesNone) {
  StorageEngine store(1 << 20);
  EXPECT_EQ(store.set("c", 1, value_of(64), std::nullopt).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.set("c", kNoSlot, value_of(64), ChunkInfo{64}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.set("c", 16, value_of(64), ChunkInfo{64}).code(),
            StatusCode::kInvalidArgument);  // past ec::kMaxSlots
  EXPECT_EQ(store.items(), 0u);
  ASSERT_TRUE(store.set("c", value_of(64)).ok());
  EXPECT_EQ(store.get("c")->chunk, std::nullopt);
}

TEST(Store, SlottedAndPlainKeysAreDistinct) {
  // A whole value stored under the composed key of fragment ("b", 2) is a
  // different item from that fragment.
  StorageEngine store(1 << 20);
  const auto plain = value_of(40, 1);
  const auto fragment = value_of(40, 2);
  ASSERT_TRUE(store.set(chunk_key("b", 2), plain).ok());
  ASSERT_TRUE(store.set("b", 2, fragment, ChunkInfo{120}).ok());
  EXPECT_EQ(store.items(), 2u);
  EXPECT_EQ(store.get(chunk_key("b", 2))->value, plain);
  EXPECT_EQ(store.get("b", 2)->value, fragment);

  EXPECT_TRUE(store.erase(chunk_key("b", 2)));
  EXPECT_FALSE(store.get(chunk_key("b", 2)).ok());
  EXPECT_EQ(store.get("b", 2)->value, fragment);
  ASSERT_TRUE(store.set(chunk_key("b", 2), plain).ok());
  EXPECT_TRUE(store.erase("b", 2));
  EXPECT_FALSE(store.get("b", 2).ok());
  EXPECT_EQ(store.get(chunk_key("b", 2))->value, plain);
}

TEST(Store, SlottedChargeCountsComposedKey) {
  // A fragment is charged as the Memcached item chunk_key(base, slot)
  // would be, plus its stored ChunkInfo.
  const Key base = "user000000000042";  // a 16-byte YCSB key
  StorageEngine store(1 << 20);
  ASSERT_TRUE(store.set(base, 3, value_of(100), ChunkInfo{300}).ok());
  EXPECT_EQ(store.bytes_used(), 18u + 100 + 56 + 16);

  StorageEngine plain(1 << 20);
  ASSERT_TRUE(plain.set(chunk_key(base, 3), value_of(100)).ok());
  EXPECT_EQ(store.bytes_used(), plain.bytes_used() + kChunkInfoBytes);
}

TEST(Store, FragmentBasesListsEachBaseKeyOnce) {
  StorageEngine store(1 << 20);
  for (const std::uint8_t slot : {std::uint8_t{3}, std::uint8_t{0}}) {
    ASSERT_TRUE(store.set("obj", slot, value_of(8), ChunkInfo{24}).ok());
  }
  ASSERT_TRUE(store.set("alpha", 4, value_of(8), ChunkInfo{24}).ok());
  ASSERT_TRUE(store.set("staged", value_of(24)).ok());  // not a fragment
  EXPECT_EQ(store.fragment_bases(), (std::vector<Key>{"alpha", "obj"}));
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
/// and a std::list of their ids in LRU order (front = most recent).
struct ModelStore {
  struct Item {
    SharedBytes value;
    std::optional<ChunkInfo> chunk;
    std::size_t charge = 0;
  };
  struct Tier {
    std::map<ItemId, Item> items;
    std::list<ItemId> lru;
    std::map<ItemId, std::list<ItemId>::iterator> lru_pos;  ///< each id in lru
    std::uint64_t used = 0;

    void push_front(const ItemId& id, Item item) {
      used += item.charge;
      lru.push_front(id);
      lru_pos.emplace(id, lru.begin());
      items.emplace(id, std::move(item));
    }
    Item take(const ItemId& id) {
      const auto it = items.find(id);
      Item item = std::move(it->second);
      items.erase(it);
      lru.erase(lru_pos.at(id));
      lru_pos.erase(id);
      used -= item.charge;
      return item;
    }
    bool erase(const ItemId& id) {
      if (!items.contains(id)) return false;
      take(id);
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
    const ItemId id = mem.lru.back();
    Item item = mem.take(id);
    if (ssd_capacity == 0 || item.charge > ssd_capacity) {
      stats.evicted_bytes += size_of(item.value);
      return;
    }
    while (ssd.used + item.charge > ssd_capacity) {
      ++stats.evictions;
      const ItemId victim = ssd.lru.back();
      stats.evicted_bytes += size_of(ssd.take(victim).value);
    }
    ++stats.demotions;
    stats.demoted_bytes += size_of(item.value);
    ssd.push_front(id, std::move(item));
  }

  StatusCode set(const ItemId& id, SharedBytes value,
                 std::optional<ChunkInfo> chunk) {
    ++stats.set_ops;
    // A fragment carries a ChunkInfo whose size fits 32 bits; a whole
    // value carries none.
    const bool fragment = id.slot != kNoSlot;
    if (fragment != chunk.has_value() ||
        (chunk && chunk->original_size > UINT32_MAX)) {
      return StatusCode::kInvalidArgument;
    }
    // A fragment is charged as its composed chunk_key plus a ChunkInfo.
    const std::size_t charge =
        id.key.size() + size_of(value) + StorageEngine::kItemOverhead +
        (fragment ? kSlotKeyBytes + kChunkInfoBytes : 0);
    if (charge > capacity) {
      ++stats.rejected_sets;
      erase(id);
      return StatusCode::kOutOfMemory;
    }
    // An overwritten item leaves the LRU before room is made, so it is
    // never its own victim.
    erase(id);
    while (mem.used + charge > capacity) evict_one();
    mem.push_front(id, Item{std::move(value), chunk, charge});
    return StatusCode::kOk;
  }

  Result<StorageEngine::GetResult> get(const ItemId& id) {
    ++stats.get_ops;
    if (const auto it = mem.items.find(id); it != mem.items.end()) {
      ++stats.hits;
      mem.lru.splice(mem.lru.begin(), mem.lru, mem.lru_pos.at(id));
      return StorageEngine::GetResult{it->second.value, it->second.chunk,
                                      false};
    }
    if (!ssd.items.contains(id)) {
      ++stats.misses;
      return Status{StatusCode::kNotFound};
    }
    ++stats.hits;
    ++stats.ssd_hits;
    ++stats.promotions;
    Item item = ssd.take(id);
    StorageEngine::GetResult out{item.value, item.chunk, true};
    while (mem.used + item.charge > capacity && !mem.lru.empty()) {
      evict_one();
    }
    mem.push_front(id, std::move(item));
    return out;
  }

  bool erase(const ItemId& id) { return mem.erase(id) || ssd.erase(id); }

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

/// Items of every stored shape: whole values under keys of 1 byte, exactly
/// the 18 inline bytes, one past them, 22, 23 and 200 bytes; fragments of
/// 16-byte (YCSB), 18-, 19- and 200-byte base keys; and whole values under
/// the composed chunk_key of some of those fragments.
std::vector<ItemId> differential_items() {
  std::vector<ItemId> items;
  for (char c = 'a'; c <= 'z'; ++c) items.push_back(ItemId{Key(1, c)});
  const auto sized_key = [](std::size_t len, int i) {
    Key key = std::to_string(len) + "/" + std::to_string(i) + "/";
    key.resize(len, 'x');
    return key;
  };
  for (const std::size_t len : {18u, 19u, 22u, 23u, 200u}) {
    for (int i = 0; i < 40; ++i) items.push_back(ItemId{sized_key(len, i)});
  }
  std::vector<Key> bases;
  for (int i = 0; i < 30; ++i) {
    bases.push_back("user" + std::to_string(100000000000 + i));
  }
  for (const std::size_t len : {18u, 19u, 200u}) {
    for (int i = 0; i < 4; ++i) bases.push_back(sized_key(len, 100 + i));
  }
  for (const Key& base : bases) {
    for (std::uint8_t slot = 0; slot < 5; ++slot) {
      items.push_back(ItemId{base, slot});
    }
  }
  for (int i = 0; i < 10; ++i) {
    items.push_back(ItemId{chunk_key(bases[static_cast<std::size_t>(i)], 1)});
  }
  return items;
}

void run_differential(std::uint64_t seed, std::uint64_t ssd_capacity) {
  constexpr std::uint64_t kCapacity = 16 * 1024;
  const std::vector<ItemId> items = differential_items();
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
  // The item's own shape, but now and then a malformed set: a fragment
  // without ChunkInfo or with a size past 32 bits, or a whole value with
  // one.
  const auto random_chunk = [&](const ItemId& id) -> std::optional<ChunkInfo> {
    const std::uint64_t dice = rng.next_below(100);
    if ((id.slot != kNoSlot) == (dice == 0)) return std::nullopt;
    if (dice == 1) return ChunkInfo{(1ull << 32) + rng.next_below(1 << 20)};
    return ChunkInfo{rng.next_below(1 << 20)};
  };
  const auto valid_chunk = [&](const ItemId& id) -> std::optional<ChunkInfo> {
    if (id.slot == kNoSlot) return std::nullopt;
    return ChunkInfo{rng.next_below(1 << 20)};
  };

  for (int step = 0; step < 20'000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const ItemId& id = items[rng.next_below(items.size())];
    const std::uint64_t dice = rng.next_below(1000);
    if (dice < 380) {  // set, mostly small so the tiers hold many entries
      const SharedBytes value =
          random_value(rng.next_below(10) == 0 ? 2000 : 80);
      const auto chunk = random_chunk(id);
      ASSERT_EQ(store.set(id.key, id.slot, value, chunk).code(),
                model.set(id, value, chunk));
    } else if (dice < 480) {  // overwrite of a resident item
      if (model.mem.lru.empty()) continue;
      auto it = model.mem.lru.begin();
      std::advance(it, rng.next_below(model.mem.lru.size()));
      const ItemId resident = *it;
      const SharedBytes value = random_value(120);
      const auto chunk = random_chunk(resident);
      ASSERT_EQ(store.set(resident.key, resident.slot, value, chunk).code(),
                model.set(resident, value, chunk));
    } else if (dice < 860) {
      const auto got = store.get(id.key, id.slot);
      const auto want = model.get(id);
      ASSERT_EQ(got.status().code(), want.status().code());
      if (want.ok()) {
        EXPECT_EQ(got->value, want->value);
        EXPECT_EQ(got->chunk, want->chunk);
        EXPECT_EQ(got->from_ssd, want->from_ssd);
      }
    } else if (dice < 970) {
      ASSERT_EQ(store.erase(id.key, id.slot), model.erase(id));
    } else if (dice < 998) {  // oversize: rejected, drops any old value
      const SharedBytes value = make_shared_bytes(
          make_pattern(kCapacity + rng.next_below(500), rng()));
      const auto chunk = valid_chunk(id);
      ASSERT_EQ(store.set(id.key, id.slot, value, chunk).code(),
                model.set(id, value, chunk));
    } else {
      store.clear();
      model.clear();
    }
    ASSERT_EQ(fields(store.stats()), fields(model.stats));
    ASSERT_EQ(store.bytes_used(), model.mem.used);
    ASSERT_EQ(store.ssd_bytes_used(), model.ssd.used);
    ASSERT_EQ(store.items(), model.mem.items.size());
    peak_items = std::max(peak_items, store.items());
    ASSERT_EQ(store.keys(), std::vector<ItemId>(model.mem.lru.begin(),
                                                model.mem.lru.end()));
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
  // Nothing is evicted, so the index only grows: about 30k fragments under
  // a mostly-Set mix carry the probe table through every 7/8 growth
  // threshold up to 14,336 items, and Erases keep running backward-shift
  // deletion just below each one and at about 80% load at the end.
  constexpr std::uint64_t kCapacity = std::uint64_t{1} << 30;
  std::vector<ItemId> items;
  for (int i = 0; i < 6000; ++i) {
    Key base = "user" + std::to_string(100000000000 + i);
    ASSERT_EQ(base.size(), 16u);  // a YCSB key
    for (std::uint8_t slot = 0; slot < 5; ++slot) {
      items.push_back(ItemId{base, slot});
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
    const ItemId& id = items[rng.next_below(items.size())];
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 55) {
      const ChunkInfo chunk{rng.next_below(1 << 20)};
      ASSERT_EQ(store.set(id.key, id.slot, value, chunk).code(),
                model.set(id, value, chunk));
    } else if (dice < 60) {
      ASSERT_EQ(store.erase(id.key, id.slot), model.erase(id));
    } else {
      const auto got = store.get(id.key, id.slot);
      const auto want = model.get(id);
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
      ASSERT_EQ(store.keys(), std::vector<ItemId>(model.mem.lru.begin(),
                                                  model.mem.lru.end()));
    }
  }
  EXPECT_GT(peak_items, 14'336u);  // past the 16,384-slot table's 7/8
  EXPECT_EQ(store.stats().evictions, 0u);
}

}  // namespace
}  // namespace hpres::kv
