// In-memory storage engine of one KV server: hash table + LRU eviction
// under a byte-capacity cap, with the accounting needed by the paper's
// memory-efficiency experiment (Figure 10): bytes used, evictions, and the
// bytes of cached data lost to eviction pressure.
//
// Each key is stored once, in its map node; the LRU lists point into the
// nodes (which never move), and entries move between tiers as whole nodes.
// Overwriting a resident key updates its entry in place.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
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
    return ssd_.used;
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
  [[nodiscard]] std::vector<Key> keys() const {
    std::vector<Key> out;
    out.reserve(mem_.lru.size());
    for (const Key* key : mem_.lru) out.push_back(*key);
    return out;
  }

  [[nodiscard]] std::uint64_t bytes_used() const noexcept { return mem_.used; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t items() const noexcept { return mem_.map.size(); }
  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }

 private:
  using Lru = std::list<const Key*>;  // front = most recent

  struct Entry {
    SharedBytes value;
    std::optional<ChunkInfo> chunk;
    std::size_t charged_bytes = 0;
    Lru::iterator lru_it;
  };
  using Map = std::unordered_map<Key, Entry>;

  /// One tier (memory or SSD): the index, its LRU order over the index's
  /// own keys, and the bytes charged.
  struct Tier {
    Map map;
    Lru lru;
    std::uint64_t used = 0;

    /// Charges the entry at `pos` and makes it the most recent.
    void link_front(Map::iterator pos) {
      used += pos->second.charged_bytes;
      lru.push_front(&pos->first);
      pos->second.lru_it = lru.begin();
    }
    /// Unlinks and uncharges the entry at `it`, handing back its node.
    Map::node_type take(Map::iterator it) {
      used -= it->second.charged_bytes;
      lru.erase(it->second.lru_it);
      return map.extract(it);
    }
    bool erase(const Key& key) {
      const auto it = map.find(key);
      if (it == map.end()) return false;
      take(it);
      return true;
    }
  };

  /// Erasure-coded fragments carry a stored ChunkInfo; charge its bytes so
  /// the memory-efficiency accounting sees per-fragment metadata too.
  [[nodiscard]] static std::size_t charge_for(
      const Key& key, const SharedBytes& value,
      const std::optional<ChunkInfo>& chunk) {
    return key.size() + (value ? value->size() : 0) + kItemOverhead +
           (chunk ? sizeof(ChunkInfo) : 0);
  }

  void evict_one();
  void evict_one_from_ssd();
  void demote_to_ssd(Map::node_type node);

  std::uint64_t capacity_;
  Tier mem_;
  // SSD tier (enabled when ssd_capacity_ > 0).
  std::uint64_t ssd_capacity_ = 0;
  Tier ssd_;
  StoreStats stats_;
};

}  // namespace hpres::kv
