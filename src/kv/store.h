// In-memory storage engine of one KV server: hash table + LRU eviction
// under a byte-capacity cap, with the accounting needed by the paper's
// memory-efficiency experiment (Figure 10): bytes used, evictions, and the
// bytes of cached data lost to eviction pressure.
//
// An item is named by a key and a slot (ItemId): fragment `slot` of the
// coded object under a base key, or (kNoSlot) the whole value under a key.
// Only fragments carry stored metadata (ChunkInfo), and a fragment's index
// is its slot, so it is not stored twice.
//
// Each tier (memory, and the optional SSD tier) is one compact index:
// 40-byte entries live in fixed 64-entry pages and are named by a 32-bit
// id; the key sits inline in its entry up to 18 bytes (a YCSB base key is
// 16), with a heap buffer only for longer keys; the LRU order is a doubly
// linked list of ids threaded through the entries; and lookup is one
// power-of-two, linear-probing table of 8-byte {hash, id} slots at load
// <= 7/8, with backward-shift deletion (no tombstones). A probe reads an
// entry only when its slot's 32-bit hash of (key, slot) matches, and table
// growth and deletion never read one. Every public call hashes its item
// once; eviction rehashes its victim's. Overwriting a resident item
// updates its entry in place; demotion and promotion move an entry by
// value between the tiers.
//
// The capacity charge (charge_for) models a Memcached item and is
// independent of this host layout: changing the layout moves no simulated
// value. A fragment is charged as if keyed by its composed chunk_key,
// plus kChunkInfoBytes of metadata. An entry does not store its charge;
// it is recomputed from the entry's key, slot and value.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "kv/protocol.h"
#include "obs/metrics.h"

namespace hpres::kv {

struct StoreStats {
  std::uint64_t set_ops = 0;
  std::uint64_t get_ops = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;       ///< items evicted under memory pressure
  std::uint64_t evicted_bytes = 0;   ///< value bytes lost to eviction
  std::uint64_t rejected_sets = 0;   ///< values larger than total capacity
  // SSD tier (when enabled): evictions demote instead of dropping.
  std::uint64_t demotions = 0;       ///< items moved memory -> SSD
  std::uint64_t demoted_bytes = 0;
  std::uint64_t promotions = 0;      ///< SSD hits moved back to memory
  std::uint64_t ssd_hits = 0;

  /// Registers every field into `reg` under component "store".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"store", std::move(node), std::move(op)};
    reg.bind_counter("store.set_ops", labels, &set_ops);
    reg.bind_counter("store.get_ops", labels, &get_ops);
    reg.bind_counter("store.hits", labels, &hits);
    reg.bind_counter("store.misses", labels, &misses);
    reg.bind_counter("store.evictions", labels, &evictions);
    reg.bind_counter("store.evicted_bytes", labels, &evicted_bytes);
    reg.bind_counter("store.rejected_sets", labels, &rejected_sets);
    reg.bind_counter("store.demotions", labels, &demotions);
    reg.bind_counter("store.demoted_bytes", labels, &demoted_bytes);
    reg.bind_counter("store.promotions", labels, &promotions);
    reg.bind_counter("store.ssd_hits", labels, &ssd_hits);
  }
};

/// Capacity of the optional SSD tier backing the in-memory store — the
/// SSD-assisted hybrid design of the RDMA-Memcached the paper builds on
/// (its Boldio servers cache into "SSD-assisted RDMA-enabled Memcached").
struct SsdConfig {
  std::uint64_t capacity_bytes = 0;
};

/// A stored item's identity: fragment `slot` of the coded object under base
/// key `key`, or the whole value stored under `key` (slot kNoSlot).
struct ItemId {
  Key key;
  std::uint8_t slot = kNoSlot;

  [[nodiscard]] auto operator<=>(const ItemId&) const = default;
};

class StorageEngine {
 public:
  /// Per-item metadata + hash-table overhead charged against capacity,
  /// matching Memcached's item header ballpark.
  static constexpr std::size_t kItemOverhead = 56;

  explicit StorageEngine(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Enables the SSD overflow tier: memory evictions demote to SSD, SSD
  /// hits promote back (and report from_ssd so the server can charge the
  /// device latency). SSD-capacity overflow is real data loss.
  void enable_ssd(SsdConfig ssd) { ssd_capacity_ = ssd.capacity_bytes; }
  [[nodiscard]] bool ssd_enabled() const noexcept {
    return ssd_capacity_ > 0;
  }
  [[nodiscard]] std::uint64_t ssd_bytes_used() const noexcept {
    return ssd_.used();
  }
  [[nodiscard]] std::uint64_t ssd_capacity() const noexcept {
    return ssd_capacity_;
  }

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Inserts or replaces item (key, slot); evicts LRU items as needed. A
  /// fragment (slot below ec::kMaxSlots) comes with its ChunkInfo, whose
  /// original_size must fit in 32 bits, and a whole value (kNoSlot) with
  /// none; anything else fails with kInvalidArgument. Fails with
  /// kOutOfMemory only when the single item exceeds total capacity, and
  /// then drops any old value of the item (as memcached unlinks the old
  /// item when a SET fails), so a later get() never serves the replaced
  /// bytes.
  Status set(std::string_view key, std::uint8_t slot, SharedBytes value,
             std::optional<ChunkInfo> chunk);
  /// Inserts or replaces the whole value under `key`.
  Status set(std::string_view key, SharedBytes value) {
    return set(key, kNoSlot, std::move(value), std::nullopt);
  }

  struct GetResult {
    SharedBytes value;
    std::optional<ChunkInfo> chunk;
    bool from_ssd = false;  ///< served via promotion from the SSD tier
  };

  /// Fetches item (key, slot) and refreshes its LRU position.
  Result<GetResult> get(std::string_view key, std::uint8_t slot = kNoSlot);

  /// Removes item (key, slot); returns whether it existed.
  bool erase(std::string_view key, std::uint8_t slot = kNoSlot);

  /// Drops every item from both tiers without touching the op counters —
  /// total state loss of a crashed node (FaultSchedule crash-with-wipe).
  void clear() {
    mem_ = Tier{};
    ssd_ = Tier{};
  }

  /// Snapshot of every in-memory item, in LRU order (most recent first);
  /// O(items).
  [[nodiscard]] std::vector<ItemId> keys() const;

  /// The distinct base keys of every in-memory fragment, sorted. Used by
  /// the scan verb for repair discovery; O(items log items).
  [[nodiscard]] std::vector<Key> fragment_bases() const;

  [[nodiscard]] std::uint64_t bytes_used() const noexcept {
    return mem_.used();
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t items() const noexcept { return mem_.size(); }
  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// A key held inline when it fits in kInline bytes, else in one heap
  /// buffer of exactly its length. 19 bytes, byte-aligned.
  class StoredKey {
   public:
    StoredKey() noexcept = default;
    explicit StoredKey(std::string_view key);
    StoredKey(StoredKey&& other) noexcept;
    StoredKey& operator=(StoredKey&& other) noexcept;
    ~StoredKey() { release(); }

    [[nodiscard]] std::string_view view() const noexcept;

   private:
    static constexpr std::size_t kInline = 18;
    static constexpr std::uint8_t kHeap = 0xFF;

    void release() noexcept;

    /// The inline key, or (when tag_ == kHeap) the heap buffer's pointer
    /// then its 32-bit length.
    char bytes_[kInline] = {};
    std::uint8_t tag_ = 0;  ///< inline length, or kHeap
  };

  /// One stored item. A free entry has a null value and an empty key, and
  /// `next` links it into its tier's free list. Its hash lives in the
  /// tier's probe table and its charge is recomputed (charge_of), so the
  /// entry stores neither.
  struct Entry {
    SharedBytes value;
    std::uint32_t prev = kNil;  ///< LRU neighbour towards the most recent
    std::uint32_t next = kNil;  ///< LRU neighbour towards the least recent
    std::uint32_t original_size = 0;  ///< a fragment's ChunkInfo
    std::uint8_t slot = kNoSlot;
    StoredKey key;

    [[nodiscard]] bool is_fragment() const noexcept {
      return slot != kNoSlot;
    }
    [[nodiscard]] std::optional<ChunkInfo> chunk() const noexcept {
      if (!is_fragment()) return std::nullopt;
      return ChunkInfo{original_size};
    }
  };
  static_assert(sizeof(Entry) == 40, "an entry is 40 bytes");

  /// One tier (memory or SSD): paged entries, the probe table over their
  /// hashes and ids, the LRU list through them, and the bytes charged.
  class Tier {
   public:
    /// Id of the entry holding item (key, slot), whose hash is `hash`, or
    /// kNil.
    [[nodiscard]] std::uint32_t find(std::string_view key, std::uint8_t slot,
                                     std::uint32_t hash) const;
    [[nodiscard]] Entry& at(std::uint32_t id) noexcept {
      return (*pages_[id >> kPageShift])[id & (kPageEntries - 1)];
    }
    [[nodiscard]] const Entry& at(std::uint32_t id) const noexcept {
      return (*pages_[id >> kPageShift])[id & (kPageEntries - 1)];
    }

    /// Stores `entry` (whose item, hashing to `hash`, is absent) as the
    /// most recent, charging its `charge` bytes; returns its id.
    std::uint32_t push_front(Entry entry, std::uint32_t hash,
                             std::size_t charge);
    /// Unindexes, unlinks and uncharges entry `id`, whose item hashes to
    /// `hash`, handing it back.
    Entry take(std::uint32_t id, std::uint32_t hash);
    bool erase(std::string_view key, std::uint8_t slot, std::uint32_t hash) {
      const std::uint32_t id = find(key, slot, hash);
      if (id == kNil) return false;
      take(id, hash);
      return true;
    }

    /// Unlinks entry `id` from the LRU and uncharges it; it stays indexed.
    void detach(std::uint32_t id) noexcept;
    /// Links entry `id` as the most recent and charges its `charge` bytes
    /// (every caller has just computed them).
    void attach_front(std::uint32_t id, std::size_t charge) noexcept;
    /// Moves linked entry `id` to the most recent position; its charge is
    /// unchanged.
    void touch(std::uint32_t id) noexcept;

    [[nodiscard]] std::uint32_t most_recent() const noexcept { return head_; }
    [[nodiscard]] std::uint32_t least_recent() const noexcept {
      return tail_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::uint64_t used() const noexcept { return used_; }

   private:
    // Small fixed pages: entries never move, and growth never copies a
    // large block. The size is measured, because some page sizes make
    // glibc return more freed heap to the OS between hpres_bench rounds,
    // which ycsb-a-64k-bytes then pays to re-fault at setup: a doubling
    // vector and 1024-entry pages did, and so did 64-entry pages of
    // 72-byte entries (4.6 KB) and 32-entry pages of 40-byte ones
    // (1.25 KB: +18% minor faults per round). 32-entry pages of 72- and
    // 48-byte entries (2.3 and 1.5 KB) did not, nor do these (2.5 KB).
    static constexpr std::uint32_t kPageShift = 6;
    static constexpr std::uint32_t kPageEntries = 1u << kPageShift;
    using Page = std::array<Entry, kPageEntries>;

    /// A probe-table slot: an entry's item hash beside its id.
    struct Slot {
      std::uint32_t hash = 0;
      std::uint32_t id = kNil;  ///< kNil = empty
    };

    /// Puts `slot` in the first empty slot of its probe sequence.
    void place(Slot slot) noexcept;

    std::vector<std::unique_ptr<Page>> pages_;
    std::uint32_t end_ = 0;      ///< ids below this have been handed out
    std::uint32_t free_ = kNil;  ///< head of the freed-id list
    std::vector<Slot> slots_;    ///< power of two
    std::size_t size_ = 0;
    std::uint32_t head_ = kNil;  ///< most recent
    std::uint32_t tail_ = kNil;  ///< least recent
    std::uint64_t used_ = 0;
  };

  /// A fragment is charged as if keyed by its composed chunk_key, plus its
  /// stored ChunkInfo, so the memory-efficiency accounting sees
  /// per-fragment metadata too.
  [[nodiscard]] static std::size_t charge_for(std::size_t key_size,
                                              const SharedBytes& value,
                                              bool fragment) noexcept {
    return key_size + (value ? value->size() : 0) + kItemOverhead +
           (fragment ? kSlotKeyBytes + kChunkInfoBytes : 0);
  }
  [[nodiscard]] static std::size_t charge_of(const Entry& entry) noexcept {
    return charge_for(entry.key.view().size(), entry.value,
                      entry.is_fragment());
  }

  bool erase_hashed(std::string_view key, std::uint8_t slot,
                    std::uint32_t hash) {
    return mem_.erase(key, slot, hash) || ssd_.erase(key, slot, hash);
  }
  void evict_one();
  void evict_one_from_ssd();
  void demote_to_ssd(Entry entry, std::uint32_t hash);

  std::uint64_t capacity_;
  Tier mem_;
  // SSD tier (enabled when ssd_capacity_ > 0).
  std::uint64_t ssd_capacity_ = 0;
  Tier ssd_;
  StoreStats stats_;
};

}  // namespace hpres::kv
