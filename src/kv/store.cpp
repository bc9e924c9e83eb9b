#include "kv/store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <utility>

#include "common/rng.h"
#include "ec/codec.h"

namespace hpres::kv {

namespace {

/// Hash of item (key, slot): the key's hash with the slot folded in, so
/// the fragments of one base key land in unrelated probe positions.
std::uint32_t hash_of(std::string_view key, std::uint8_t slot) {
  const std::uint64_t h = splitmix64(std::hash<std::string_view>{}(key) ^
                                     std::uint64_t{slot});
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t size_of(const SharedBytes& value) {
  return value ? value->size() : 0;
}

}  // namespace

// --- StoredKey --------------------------------------------------------------

StorageEngine::StoredKey::StoredKey(std::string_view key) {
  if (key.size() <= kInline) {
    std::memcpy(bytes_, key.data(), key.size());
    tag_ = static_cast<std::uint8_t>(key.size());
    return;
  }
  char* const heap = new char[key.size()];
  std::memcpy(heap, key.data(), key.size());
  const auto size = static_cast<std::uint32_t>(key.size());
  std::memcpy(bytes_, &heap, sizeof heap);
  std::memcpy(bytes_ + sizeof heap, &size, sizeof size);
  tag_ = kHeap;
}

StorageEngine::StoredKey::StoredKey(StoredKey&& other) noexcept
    : tag_(other.tag_) {
  std::memcpy(bytes_, other.bytes_, kInline);
  other.tag_ = 0;
}

StorageEngine::StoredKey& StorageEngine::StoredKey::operator=(
    StoredKey&& other) noexcept {
  if (this != &other) {
    release();
    std::memcpy(bytes_, other.bytes_, kInline);
    tag_ = other.tag_;
    other.tag_ = 0;
  }
  return *this;
}

std::string_view StorageEngine::StoredKey::view() const noexcept {
  if (tag_ != kHeap) return {bytes_, tag_};
  const char* heap = nullptr;
  std::uint32_t size = 0;
  std::memcpy(&heap, bytes_, sizeof heap);
  std::memcpy(&size, bytes_ + sizeof heap, sizeof size);
  return {heap, size};
}

void StorageEngine::StoredKey::release() noexcept {
  if (tag_ != kHeap) return;
  char* heap = nullptr;
  std::memcpy(&heap, bytes_, sizeof heap);
  delete[] heap;
  tag_ = 0;
}

// --- Tier -------------------------------------------------------------------

std::uint32_t StorageEngine::Tier::find(std::string_view key,
                                        std::uint8_t slot,
                                        std::uint32_t hash) const {
  if (slots_.empty()) return kNil;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t p = hash & mask;; p = (p + 1) & mask) {
    const Slot probe = slots_[p];
    if (probe.id == kNil) return kNil;
    if (probe.hash != hash) continue;
    const Entry& entry = at(probe.id);
    if (entry.slot == slot && entry.key.view() == key) return probe.id;
  }
}

std::uint32_t StorageEngine::Tier::push_front(Entry entry,
                                              std::uint32_t hash,
                                              std::size_t charge) {
  std::uint32_t id = free_;
  if (id != kNil) {
    free_ = at(id).next;
  } else {
    if (end_ == pages_.size() * kPageEntries) {
      pages_.push_back(std::make_unique<Page>());
    }
    id = end_++;
  }
  at(id) = std::move(entry);
  // Load stays at most 7/8, so every probe sequence ends at an empty slot.
  if (8 * (size_ + 1) > 7 * slots_.size()) {
    const std::vector<Slot> old = std::exchange(
        slots_,
        std::vector<Slot>(std::max<std::size_t>(16, 2 * slots_.size())));
    for (const Slot moved : old) {
      if (moved.id != kNil) place(moved);
    }
  }
  place(Slot{hash, id});
  ++size_;
  attach_front(id, charge);
  return id;
}

void StorageEngine::Tier::place(Slot slot) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t p = slot.hash & mask;
  while (slots_[p].id != kNil) p = (p + 1) & mask;
  slots_[p] = slot;
}

StorageEngine::Entry StorageEngine::Tier::take(std::uint32_t id,
                                               std::uint32_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = hash & mask;
  while (slots_[hole].id != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later member of the cluster into
  // the hole unless its home lies cyclically in (hole, q].
  for (std::size_t q = (hole + 1) & mask; slots_[q].id != kNil;
       q = (q + 1) & mask) {
    const std::size_t home = slots_[q].hash & mask;
    if (((q - home) & mask) >= ((q - hole) & mask)) {
      slots_[hole] = slots_[q];
      hole = q;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  detach(id);
  Entry out = std::move(at(id));
  at(id).next = free_;
  free_ = id;
  return out;
}

// detach reads the charge before relinking: after a store to a neighbour
// entry the compiler must reload the entry's fields, which measurably
// slowed the overwrite Set; so did recomputing the charge in attach_front.
void StorageEngine::Tier::detach(std::uint32_t id) noexcept {
  const Entry& entry = at(id);
  used_ -= charge_of(entry);
  (entry.prev != kNil ? at(entry.prev).next : head_) = entry.next;
  (entry.next != kNil ? at(entry.next).prev : tail_) = entry.prev;
}

void StorageEngine::Tier::attach_front(std::uint32_t id,
                                       std::size_t charge) noexcept {
  Entry& entry = at(id);
  assert(charge == charge_of(entry));
  used_ += charge;
  entry.prev = kNil;
  entry.next = head_;
  (head_ != kNil ? at(head_).prev : tail_) = id;
  head_ = id;
}

void StorageEngine::Tier::touch(std::uint32_t id) noexcept {
  if (id == head_) return;
  Entry& entry = at(id);
  // Not the head, so it has a more recent neighbour.
  at(entry.prev).next = entry.next;
  (entry.next != kNil ? at(entry.next).prev : tail_) = entry.prev;
  entry.prev = kNil;
  entry.next = head_;
  at(head_).prev = id;
  head_ = id;
}

// --- StorageEngine ----------------------------------------------------------

Status StorageEngine::set(std::string_view key, std::uint8_t slot,
                          SharedBytes value, std::optional<ChunkInfo> chunk) {
  ++stats_.set_ops;
  const bool fragment = slot != kNoSlot;
  if (fragment != chunk.has_value() || (fragment && slot >= ec::kMaxSlots) ||
      (chunk && chunk->original_size > UINT32_MAX)) {
    return Status{
        StatusCode::kInvalidArgument,
        "a fragment carries a 32-bit ChunkInfo, a whole value none"};
  }
  const std::uint32_t hash = hash_of(key, slot);
  const std::size_t charge = charge_for(key.size(), value, fragment);
  if (charge > capacity_) {
    ++stats_.rejected_sets;
    erase_hashed(key, slot, hash);
    return Status{StatusCode::kOutOfMemory, "item exceeds server capacity"};
  }
  const auto original_size =
      static_cast<std::uint32_t>(chunk ? chunk->original_size : 0);

  // Drop any stale SSD copy so a later promotion cannot resurrect it.
  ssd_.erase(key, slot, hash);
  if (const std::uint32_t id = mem_.find(key, slot, hash); id != kNil) {
    // Overwrite in place. The entry sits outside the LRU while room is
    // made, so it is never its own victim, then returns at the front.
    mem_.detach(id);
    while (mem_.used() + charge > capacity_) evict_one();
    Entry& entry = mem_.at(id);
    entry.value = std::move(value);
    entry.original_size = original_size;
    mem_.attach_front(id, charge);
    return Status::Ok();
  }
  while (mem_.used() + charge > capacity_) evict_one();
  mem_.push_front(Entry{.value = std::move(value),
                        .original_size = original_size,
                        .slot = slot,
                        .key = StoredKey(key)},
                  hash, charge);
  return Status::Ok();
}

Result<StorageEngine::GetResult> StorageEngine::get(std::string_view key,
                                                    std::uint8_t slot) {
  ++stats_.get_ops;
  const std::uint32_t hash = hash_of(key, slot);
  if (const std::uint32_t id = mem_.find(key, slot, hash); id != kNil) {
    ++stats_.hits;
    mem_.touch(id);  // refresh LRU position
    const Entry& entry = mem_.at(id);
    return GetResult{entry.value, entry.chunk(), false};
  }
  // Memory miss: consult the SSD tier, promoting on a hit.
  const std::uint32_t sid = ssd_.find(key, slot, hash);
  if (sid == kNil) {
    ++stats_.misses;
    return Status{StatusCode::kNotFound};
  }
  ++stats_.hits;
  ++stats_.ssd_hits;
  ++stats_.promotions;
  Entry entry = ssd_.take(sid, hash);
  GetResult out{entry.value, entry.chunk(), /*from_ssd=*/true};
  // Re-admit to memory (may demote colder items in turn).
  const std::size_t charge = charge_of(entry);
  while (mem_.used() + charge > capacity_ && mem_.size() > 0) {
    evict_one();
  }
  mem_.push_front(std::move(entry), hash, charge);
  return out;
}

bool StorageEngine::erase(std::string_view key, std::uint8_t slot) {
  return erase_hashed(key, slot, hash_of(key, slot));
}

std::vector<ItemId> StorageEngine::keys() const {
  std::vector<ItemId> out;
  out.reserve(mem_.size());
  for (std::uint32_t id = mem_.most_recent(); id != kNil;
       id = mem_.at(id).next) {
    const Entry& entry = mem_.at(id);
    out.push_back(ItemId{Key(entry.key.view()), entry.slot});
  }
  return out;
}

std::vector<Key> StorageEngine::fragment_bases() const {
  std::vector<Key> out;
  out.reserve(mem_.size());
  for (std::uint32_t id = mem_.most_recent(); id != kNil;
       id = mem_.at(id).next) {
    const Entry& entry = mem_.at(id);
    if (entry.is_fragment()) out.emplace_back(entry.key.view());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void StorageEngine::evict_one() {
  assert(mem_.size() > 0 && "capacity accounting underflow");
  ++stats_.evictions;
  const std::uint32_t id = mem_.least_recent();
  const Entry& victim = mem_.at(id);
  const std::uint32_t hash = hash_of(victim.key.view(), victim.slot);
  Entry entry = mem_.take(id, hash);
  if (ssd_enabled() && charge_of(entry) <= ssd_capacity_) {
    demote_to_ssd(std::move(entry), hash);
  } else {
    stats_.evicted_bytes += size_of(entry.value);
  }
}

void StorageEngine::demote_to_ssd(Entry entry, std::uint32_t hash) {
  const std::size_t charge = charge_of(entry);
  while (ssd_.used() + charge > ssd_capacity_) evict_one_from_ssd();
  // set() drops the SSD copy before writing memory and promotion takes it
  // out, so a key is never in both tiers.
  assert(ssd_.find(entry.key.view(), entry.slot, hash) == kNil);
  ++stats_.demotions;
  stats_.demoted_bytes += size_of(entry.value);
  ssd_.push_front(std::move(entry), hash, charge);
}

void StorageEngine::evict_one_from_ssd() {
  assert(ssd_.size() > 0 && "SSD accounting underflow");
  ++stats_.evictions;
  const std::uint32_t id = ssd_.least_recent();
  const Entry& victim = ssd_.at(id);
  stats_.evicted_bytes += size_of(
      ssd_.take(id, hash_of(victim.key.view(), victim.slot)).value);
}

}  // namespace hpres::kv
