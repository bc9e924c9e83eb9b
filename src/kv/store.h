// In-memory storage engine of one KV server: hash table + LRU eviction
// under a byte-capacity cap, with the accounting needed by the paper's
// memory-efficiency experiment (Figure 10): bytes used, evictions, and the
// bytes of cached data lost to eviction pressure.
//
// Each tier (memory, and the optional SSD tier) is one compact index:
// 48-byte entries live in fixed 32-entry pages and are named by a 32-bit
// id; the key sits inline in its entry up to 19 bytes (a YCSB fragment key
// is 18), with a heap buffer only for longer keys; the LRU order is a
// doubly linked list of ids threaded through the entries; and lookup is
// one power-of-two, linear-probing table of 8-byte {hash, id} slots at
// load <= 7/8, with backward-shift deletion (no tombstones). A probe reads
// an entry only when its slot's 32-bit hash matches, and table growth and
// deletion never read one. Every public call hashes its key once;
// eviction rehashes its victim's key. Overwriting a resident key updates
// its entry in place; demotion and promotion move an entry by value
// between the tiers.
//
// The capacity charge (charge_for) models a Memcached item and is
// independent of this host layout: changing the layout moves no simulated
// value. An entry does not store its charge; it is recomputed from the
// entry's key, value and chunk flag.
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

  /// Inserts or replaces; evicts LRU items as needed. Fails with
  /// kOutOfMemory only when the single item exceeds total capacity, and
  /// then drops any old value of `key` (as memcached unlinks the old item
  /// when a SET fails), so a later get() never serves the replaced bytes.
  /// A chunk's k + m is at most ec::kMaxSlots.
  Status set(const Key& key, SharedBytes value,
             std::optional<ChunkInfo> chunk = std::nullopt);

  struct GetResult {
    SharedBytes value;
    std::optional<ChunkInfo> chunk;
    bool from_ssd = false;  ///< served via promotion from the SSD tier
  };

  /// Fetches and refreshes LRU position.
  Result<GetResult> get(const Key& key);

  /// Removes a key; returns whether it existed.
  bool erase(const Key& key);

  /// Drops every item from both tiers without touching the op counters —
  /// total state loss of a crashed node (FaultSchedule crash-with-wipe).
  void clear() {
    mem_ = Tier{};
    ssd_ = Tier{};
  }

  /// Snapshot of every in-memory key, in LRU order (most recent first).
  /// Used by the scan verb for repair discovery; O(items).
  [[nodiscard]] std::vector<Key> keys() const;

  [[nodiscard]] std::uint64_t bytes_used() const noexcept {
    return mem_.used();
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t items() const noexcept { return mem_.size(); }
  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// A key held inline when it fits in kInline bytes, else in one heap
  /// buffer of exactly its length. 20 bytes, byte-aligned.
  class StoredKey {
   public:
    StoredKey() noexcept = default;
    explicit StoredKey(std::string_view key);
    StoredKey(StoredKey&& other) noexcept;
    StoredKey& operator=(StoredKey&& other) noexcept;
    ~StoredKey() { release(); }

    [[nodiscard]] std::string_view view() const noexcept;

   private:
    static constexpr std::size_t kInline = 19;
    static constexpr std::uint8_t kHeap = 0xFF;

    void release() noexcept;

    /// The inline key, or (when tag_ == kHeap) the heap buffer's pointer
    /// then its 32-bit length.
    char bytes_[kInline] = {};
    std::uint8_t tag_ = 0;  ///< inline length, or kHeap
  };

  /// One stored item. A free entry has a null value and an empty key, and
  /// `next` links it into its tier's free list. Its key's hash lives in the
  /// tier's probe table and its charge is recomputed (charge_of), so the
  /// entry stores neither; the ChunkInfo fields narrow to 8 bits, since a
  /// fragment's slot and k + m are below ec::kMaxSlots.
  struct Entry {
    SharedBytes value;
    std::uint32_t prev = kNil;  ///< LRU neighbour towards the most recent
    std::uint32_t next = kNil;  ///< LRU neighbour towards the least recent
    // ChunkInfo, meaningful only when has_chunk.
    std::uint64_t original_size = 0;
    std::uint8_t chunk_index = 0;
    std::uint8_t k = 0;
    std::uint8_t m = 0;
    bool has_chunk = false;
    StoredKey key;

    void set_chunk(const std::optional<ChunkInfo>& chunk) noexcept;
    [[nodiscard]] std::optional<ChunkInfo> chunk() const noexcept;
  };
  static_assert(sizeof(Entry) == 48, "an entry is 48 bytes");

  /// One tier (memory or SSD): paged entries, the probe table over their
  /// hashes and ids, the LRU list through them, and the bytes charged.
  class Tier {
   public:
    /// Id of the entry holding `key` (whose hash is `hash`), or kNil.
    [[nodiscard]] std::uint32_t find(std::string_view key,
                                     std::uint32_t hash) const;
    [[nodiscard]] Entry& at(std::uint32_t id) noexcept {
      return (*pages_[id >> kPageShift])[id & (kPageEntries - 1)];
    }
    [[nodiscard]] const Entry& at(std::uint32_t id) const noexcept {
      return (*pages_[id >> kPageShift])[id & (kPageEntries - 1)];
    }

    /// Stores `entry` (whose key, hashing to `hash`, is absent) as the most
    /// recent, charging its `charge` bytes; returns its id.
    std::uint32_t push_front(Entry entry, std::uint32_t hash,
                             std::size_t charge);
    /// Unindexes, unlinks and uncharges entry `id`, whose key hashes to
    /// `hash`, handing it back.
    Entry take(std::uint32_t id, std::uint32_t hash);
    bool erase(std::string_view key, std::uint32_t hash) {
      const std::uint32_t id = find(key, hash);
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
    // large block. The size is measured: with one doubling vector, or
    // 1024- or 64-entry pages, glibc returned more freed heap to the OS
    // between hpres_bench rounds and ycsb-a-64k-bytes paid to re-fault
    // it at setup; 32-entry pages (2.3 KB then, 1.5 KB now) did not.
    static constexpr std::uint32_t kPageShift = 5;
    static constexpr std::uint32_t kPageEntries = 1u << kPageShift;
    using Page = std::array<Entry, kPageEntries>;

    /// A probe-table slot: an entry's key hash beside its id.
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

  /// Erasure-coded fragments carry a stored ChunkInfo; charge its bytes so
  /// the memory-efficiency accounting sees per-fragment metadata too.
  [[nodiscard]] static std::size_t charge_for(std::size_t key_size,
                                              const SharedBytes& value,
                                              bool has_chunk) noexcept {
    return key_size + (value ? value->size() : 0) + kItemOverhead +
           (has_chunk ? sizeof(ChunkInfo) : 0);
  }
  [[nodiscard]] static std::size_t charge_of(const Entry& entry) noexcept {
    return charge_for(entry.key.view().size(), entry.value, entry.has_chunk);
  }

  bool erase_hashed(const Key& key, std::uint32_t hash) {
    return mem_.erase(key, hash) || ssd_.erase(key, hash);
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
