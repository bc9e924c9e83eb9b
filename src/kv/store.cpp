#include "kv/store.h"

#include <cassert>

namespace hpres::kv {

Status StorageEngine::set(const Key& key, SharedBytes value,
                          std::optional<ChunkInfo> chunk) {
  ++stats_.set_ops;
  const std::size_t charge = charge_for(key, value, chunk);
  if (charge > capacity_) {
    ++stats_.rejected_sets;
    erase(key);
    return Status{StatusCode::kOutOfMemory, "item exceeds server capacity"};
  }

  // Drop any stale SSD copy so a later promotion cannot resurrect it.
  ssd_.erase(key);
  if (const auto it = mem_.map.find(key); it != mem_.map.end()) {
    // Overwrite in place. The entry sits outside the LRU while room is
    // made, so it is never its own victim, then returns at the front.
    Entry& entry = it->second;
    mem_.used -= entry.charged_bytes;
    Lru held;
    held.splice(held.begin(), mem_.lru, entry.lru_it);
    while (mem_.used + charge > capacity_) evict_one();
    mem_.lru.splice(mem_.lru.begin(), held, entry.lru_it);
    entry.value = std::move(value);
    entry.chunk = chunk;
    entry.charged_bytes = charge;
    mem_.used += charge;
    return Status::Ok();
  }
  while (mem_.used + charge > capacity_) evict_one();
  mem_.link_front(
      mem_.map.emplace(key, Entry{std::move(value), chunk, charge, {}}).first);
  return Status::Ok();
}

Result<StorageEngine::GetResult> StorageEngine::get(const Key& key) {
  ++stats_.get_ops;
  const auto it = mem_.map.find(key);
  if (it == mem_.map.end()) {
    // Memory miss: consult the SSD tier, promoting on a hit.
    const auto sit = ssd_.map.find(key);
    if (sit == ssd_.map.end()) {
      ++stats_.misses;
      return Status{StatusCode::kNotFound};
    }
    ++stats_.hits;
    ++stats_.ssd_hits;
    ++stats_.promotions;
    Map::node_type node = ssd_.take(sit);
    const Entry& entry = node.mapped();
    GetResult out{entry.value, entry.chunk, /*from_ssd=*/true};
    // Re-admit to memory (may demote colder items in turn).
    while (mem_.used + entry.charged_bytes > capacity_ && !mem_.lru.empty()) {
      evict_one();
    }
    mem_.link_front(mem_.map.insert(std::move(node)).position);
    return out;
  }
  ++stats_.hits;
  // Refresh LRU position.
  mem_.lru.splice(mem_.lru.begin(), mem_.lru, it->second.lru_it);
  return GetResult{it->second.value, it->second.chunk, false};
}

bool StorageEngine::erase(const Key& key) {
  return mem_.erase(key) || ssd_.erase(key);
}

void StorageEngine::evict_one() {
  assert(!mem_.lru.empty() && "capacity accounting underflow");
  const auto it = mem_.map.find(*mem_.lru.back());
  assert(it != mem_.map.end());
  ++stats_.evictions;
  Map::node_type node = mem_.take(it);
  if (ssd_enabled() && node.mapped().charged_bytes <= ssd_capacity_) {
    demote_to_ssd(std::move(node));
  } else {
    const SharedBytes& value = node.mapped().value;
    stats_.evicted_bytes += value ? value->size() : 0;
  }
}

void StorageEngine::demote_to_ssd(Map::node_type node) {
  const Entry& entry = node.mapped();
  while (ssd_.used + entry.charged_bytes > ssd_capacity_) {
    evict_one_from_ssd();
  }
  // Replace any stale SSD copy of the same key.
  ssd_.erase(node.key());
  ++stats_.demotions;
  stats_.demoted_bytes += entry.value ? entry.value->size() : 0;
  ssd_.link_front(ssd_.map.insert(std::move(node)).position);
}

void StorageEngine::evict_one_from_ssd() {
  assert(!ssd_.lru.empty() && "SSD accounting underflow");
  const auto it = ssd_.map.find(*ssd_.lru.back());
  assert(it != ssd_.map.end());
  ++stats_.evictions;
  stats_.evicted_bytes += it->second.value ? it->second.value->size() : 0;
  ssd_.take(it);
}

}  // namespace hpres::kv
