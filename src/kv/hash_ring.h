// Consistent-hash ring (ketama-style virtual nodes) plus the paper's chunk
// placement rule: consistent hashing locates the originally designated
// server, then the N-1 *following servers in the server list* hold the
// remaining fragments (Section IV-A).
//
// One lookup per op: place(key) hashes the key once, walks the ring once
// and returns a Placement that names every slot's owner from the primary's
// position in the active list. An op resolves its key's Placement once and
// asks it for owners at every use; a Placement remembers the epoch it was
// resolved under and re-resolves (from the kept hash, without hashing the
// key again) only when the ring's epoch has moved, so an op whose wait
// crosses a join or leave still addresses the new owners.
//
// Elastic placement: the ring distinguishes *provisioned* servers (the
// fixed index space 0..num_servers-1, sized at construction) from the
// *active* set actually projected onto the ring. add_server / remove_server
// mutate the active set, bump the placement epoch, and rebuild the point
// map; moved_ranges() diffs two rings into the minimal set of hash ranges
// whose owner changed, which is what the migration pass walks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "kv/protocol.h"

namespace hpres::kv {

class HashRing;

/// One key's owners under a ring: what HashRing::place returns. owner(slot)
/// is the server-list index holding slot `slot` of the key under the ring's
/// *current* epoch; when the ring has moved since the placement was
/// resolved, the call re-resolves it first. A Placement refers to its ring,
/// which must outlive it.
class Placement {
 public:
  Placement() = default;

  /// The primary for slot 0, then the following active servers in list
  /// order, wrapping (below n active servers a server holds two slots).
  [[nodiscard]] std::size_t owner(std::size_t slot);

  /// The ring epoch this placement was last resolved under.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// The ring's epoch has moved since: the next owner() re-resolves.
  [[nodiscard]] bool stale() const noexcept;

 private:
  friend class HashRing;

  const HashRing* ring_ = nullptr;
  std::uint64_t hash_ = 0;   ///< HashRing::hash_key of the key
  std::uint64_t epoch_ = 0;  ///< ring epoch pos_ was resolved under
  std::size_t pos_ = 0;      ///< the primary's position in active()
};

class HashRing {
 public:
  /// The ring's shape: ketama points per server and hash seed. Every ring
  /// shares them, so two rings differ only in their active sets.
  static constexpr std::size_t kVnodes = 128;
  static constexpr std::uint64_t kSeed = 0x5eed;

  /// `num_servers` servers indexed 0..num_servers-1, each projected onto
  /// the ring at kVnodes points. `initial_active` bounds the initially
  /// active prefix [0, initial_active); 0 means every provisioned server
  /// starts active (the classic fixed-membership ring).
  explicit HashRing(std::size_t num_servers, std::size_t initial_active = 0);

  /// Provisioned index space (stable across joins/leaves): fragment slot
  /// counts and per-server bookkeeping are sized against this.
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }

  /// Servers currently projected onto the ring.
  [[nodiscard]] std::size_t num_active() const noexcept {
    return active_.size();
  }

  /// Placement epoch: starts at 1, bumped by every add/remove. Requests
  /// stamped with epoch 0 are placement-unaware (the sentinel legacy
  /// clients use); servers only bounce epochs that are stale, never 0.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  [[nodiscard]] bool is_active(std::size_t server) const noexcept {
    return std::binary_search(active_.begin(), active_.end(), server);
  }

  /// Active server indices, ascending.
  [[nodiscard]] const std::vector<std::size_t>& active() const noexcept {
    return active_;
  }

  /// Projects `server` onto the ring and bumps the epoch. The server must
  /// be provisioned (< num_servers()) and not already active.
  void add_server(std::size_t server);

  /// Withdraws `server` from the ring and bumps the epoch. At least one
  /// active server must remain; callers enforce the stronger invariant
  /// that the codec's n never exceeds the active count.
  void remove_server(std::size_t server);

  /// Index (into the server list) of the key's designated primary server.
  [[nodiscard]] std::size_t primary_index(std::string_view key) const;

  /// The key's owners: one hash and one ring walk. With every provisioned
  /// server active, owner(slot) is the classic (primary + slot) %
  /// num_servers rule.
  [[nodiscard]] Placement place(std::string_view key) const;

  /// place(key).owner(slot), for tests and tools. An op resolves one
  /// Placement and asks it instead of calling this per slot.
  [[nodiscard]] std::size_t slot_index(std::string_view key,
                                       std::size_t slot) const {
    return place(key).owner(slot);
  }

  /// 64-bit key hash (exposed for tests and workload tooling).
  [[nodiscard]] static std::uint64_t hash_key(std::string_view key) noexcept;

  /// One hash range whose primary owner differs between two rings. Ranges
  /// are half-open arcs (begin, end] on the 2^64 circle; begin >= end
  /// denotes the wrapping arc through 0.
  struct MovedRange {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::size_t from = 0;  ///< primary owner under the old ring
    std::size_t to = 0;    ///< primary owner under the new ring

    [[nodiscard]] bool covers(std::uint64_t h) const noexcept {
      if (begin < end) return h > begin && h <= end;
      return h > begin || h <= end;  // wrapping arc (or the full circle)
    }
  };

  /// Exact diff of primary ownership between two rings: every returned
  /// range changed owner, and any key hashing outside all ranges keeps its
  /// primary. The migration pass only touches keys whose hash a range
  /// covers.
  [[nodiscard]] static std::vector<MovedRange> moved_ranges(
      const HashRing& before, const HashRing& after);

  /// True when some range in `ranges` covers `h`.
  [[nodiscard]] static bool any_covers(const std::vector<MovedRange>& ranges,
                                       std::uint64_t h) noexcept {
    for (const MovedRange& r : ranges) {
      if (r.covers(h)) return true;
    }
    return false;
  }

  /// Fraction of the hash circle the ranges cover — the expected share of
  /// keys whose primary moves (≈ 1/num_active for a single join).
  [[nodiscard]] static double moved_fraction(
      const std::vector<MovedRange>& ranges) noexcept;

 private:
  friend class Placement;

  void rebuild();
  [[nodiscard]] std::size_t owner_of(std::uint64_t h) const;
  /// Resolves `p` from its kept hash under the current epoch.
  void resolve(Placement& p) const;

  std::size_t num_servers_;
  std::uint64_t epoch_ = 1;
  std::vector<std::size_t> active_;            // ascending server indices
  std::map<std::uint64_t, std::size_t> ring_;  // point -> server index
};

inline bool Placement::stale() const noexcept {
  return epoch_ != ring_->epoch_;
}

inline std::size_t Placement::owner(std::size_t slot) {
  if (stale()) [[unlikely]] ring_->resolve(*this);
  const std::vector<std::size_t>& active = ring_->active_;
  return active[(pos_ + slot) % active.size()];
}

}  // namespace hpres::kv
