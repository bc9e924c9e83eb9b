#include "kv/hash_ring.h"

#include <cassert>

#include "common/rng.h"

namespace hpres::kv {

HashRing::HashRing(std::size_t num_servers, std::size_t initial_active)
    : num_servers_(num_servers) {
  assert(num_servers >= 1);
  assert(initial_active <= num_servers);
  const std::size_t active =
      initial_active == 0 ? num_servers : initial_active;
  active_.reserve(num_servers);
  for (std::size_t s = 0; s < active; ++s) active_.push_back(s);
  rebuild();
}

void HashRing::rebuild() {
  // Full rebuild over the active set, in the same (server ascending, vnode
  // ascending) insertion order as construction: point collisions resolve
  // identically, so a ring grown to the full provisioned set is
  // byte-for-byte the classic fixed-membership ring. Collisions are
  // harmless (last writer wins on one point of many).
  ring_.clear();
  for (const std::size_t s : active_) {
    for (std::size_t v = 0; v < kVnodes; ++v) {
      const std::uint64_t point =
          splitmix64(kSeed ^ splitmix64(s * 0x10001 + v));
      ring_[point] = s;
    }
  }
}

void HashRing::add_server(std::size_t server) {
  assert(server < num_servers_);
  const auto it = std::lower_bound(active_.begin(), active_.end(), server);
  assert(it == active_.end() || *it != server);  // must not already be active
  active_.insert(it, server);
  ++epoch_;
  rebuild();
}

void HashRing::remove_server(std::size_t server) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), server);
  assert(it != active_.end() && *it == server);  // must be active
  assert(active_.size() > 1);
  active_.erase(it);
  ++epoch_;
  rebuild();
}

std::uint64_t HashRing::hash_key(std::string_view key) noexcept {
  // FNV-1a 64 finished with a splitmix avalanche: fast and well spread for
  // the short printable keys benchmarks generate.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return splitmix64(h);
}

std::size_t HashRing::owner_of(std::uint64_t h) const {
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

std::size_t HashRing::primary_index(std::string_view key) const {
  return owner_of(hash_key(key));
}

Placement HashRing::place(std::string_view key) const {
  Placement p;
  p.ring_ = this;
  p.hash_ = hash_key(key);
  resolve(p);
  return p;
}

void HashRing::resolve(Placement& p) const {
  const std::size_t primary = owner_of(p.hash_);
  p.pos_ = static_cast<std::size_t>(
      std::lower_bound(active_.begin(), active_.end(), primary) -
      active_.begin());
  p.epoch_ = epoch_;
}

std::vector<HashRing::MovedRange> HashRing::moved_ranges(
    const HashRing& before, const HashRing& after) {
  // Ownership is piecewise constant between consecutive points of the
  // union of both rings' point sets: within an arc bounded by two adjacent
  // union points there is no point of either ring, so lower_bound resolves
  // every hash in the arc to the same owner as the arc's upper endpoint.
  std::vector<std::uint64_t> points;
  points.reserve(before.ring_.size() + after.ring_.size());
  for (const auto& [p, s] : before.ring_) points.push_back(p);
  for (const auto& [p, s] : after.ring_) points.push_back(p);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  std::vector<MovedRange> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t hi = points[i];
    const std::uint64_t lo = i == 0 ? points.back() : points[i - 1];
    const std::size_t from = before.owner_of(hi);
    const std::size_t to = after.owner_of(hi);
    if (from == to) continue;
    // Merge with the preceding arc when it ends where this one starts and
    // moves between the same pair of owners.
    if (!out.empty() && out.back().end == lo && out.back().from == from &&
        out.back().to == to) {
      out.back().end = hi;
    } else {
      out.push_back(MovedRange{lo, hi, from, to});
    }
  }
  return out;
}

double HashRing::moved_fraction(const std::vector<MovedRange>& ranges)
    noexcept {
  // Arc length of (begin, end] is end - begin in mod-2^64 arithmetic,
  // which unsigned wraparound computes directly for wrapping arcs too
  // (begin == end denotes the full circle; moved_ranges only produces it
  // in the degenerate one-point case).
  long double covered = 0.0L;
  for (const MovedRange& r : ranges) {
    const std::uint64_t len = r.end - r.begin;
    covered += len == 0 ? 0x1p64L : static_cast<long double>(len);
  }
  return static_cast<double>(covered / 0x1p64L);
}

}  // namespace hpres::kv
