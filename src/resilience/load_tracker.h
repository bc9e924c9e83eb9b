// Client-side per-server load estimation for read-set selection.
//
// Every Response piggybacks the responder's handler queue depth
// (kv::Response::queue_depth); the client additionally knows the RTT it
// just observed. NodeLoadTracker folds both into per-server EWMAs and
// exposes a scalar score — a simplified C3-style replica ranking (Suresh
// et al., NSDI'15): queue depth predicts waiting time, the RTT EWMA folds
// in service time and network distance. Read paths order candidate
// fragment slots by the owner's score; near-equal neighbours are broken by
// a seeded power-of-two-choices coin so ties don't deterministically pile
// onto one server.
//
// Passive only: the tracker draws no RNG and sends no probes on its own,
// so an engine that never *consults* it (hedging off, load-aware off)
// keeps bit-identical schedules while still learning from piggybacked
// depths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace hpres::resilience {

/// Ranks `slots` by `score(slot)`, lowest first, in place: a stable
/// insertion sort (the same order as std::stable_sort, without its buffer;
/// callers rank at most a codec's k+m slots). Then, when `tie_rng` is
/// given, one pass swaps each adjacent pair whose later score is within 5%
/// of the earlier one on a coin flip, drawing once per such pair.
template <typename Score>
void rank_slots(std::span<std::size_t> slots, Score score,
                Xoshiro256* tie_rng) {
  for (std::size_t i = 1; i < slots.size(); ++i) {
    const std::size_t slot = slots[i];
    const double s = score(slot);
    std::size_t j = i;
    for (; j > 0 && s < score(slots[j - 1]); --j) slots[j] = slots[j - 1];
    slots[j] = slot;
  }
  if (tie_rng == nullptr) return;
  for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
    const double a = score(slots[i]);
    const double b = score(slots[i + 1]);
    if (b <= a * 1.05 && tie_rng->next_double() < 0.5) {
      std::swap(slots[i], slots[i + 1]);
    }
  }
}

class NodeLoadTracker {
 public:
  /// EWMA smoothing factor: higher reacts faster, lower remembers longer.
  /// 0.25 tracks a queue building over ~10 responses without thrashing on
  /// one outlier.
  static constexpr double kAlpha = 0.25;

  /// `servers` = cluster server count (indices, not NodeIds).
  explicit NodeLoadTracker(std::size_t servers, std::uint64_t seed = 1)
      : nodes_(servers), rng_(splitmix64(seed) ^ 0x10adULL) {}

  /// Folds a full observation: piggybacked queue depth plus the RTT the
  /// caller measured for that response.
  void observe_rtt(std::size_t server, SimDur rtt_ns,
                   std::uint32_t queue_depth) noexcept {
    if (server >= nodes_.size()) return;
    Node& nd = nodes_[server];
    const bool first = nd.samples == 0;
    nd.queue_ewma = mix(nd.queue_ewma, static_cast<double>(queue_depth), first);
    nd.rtt_ewma_us =
        mix(nd.rtt_ewma_us, static_cast<double>(rtt_ns) / 1000.0, first);
    ++nd.samples;
    ++total_samples_;
  }

  /// Scalar badness of a server: higher = slower to answer next. The
  /// (1 + q) * (1 + rtt_us) product makes either a deep queue or a long
  /// observed RTT dominate, and an unknown server (no samples) scores the
  /// neutral 1.0 — neither favoured nor avoided.
  [[nodiscard]] double score(std::size_t server) const noexcept {
    if (server >= nodes_.size()) return 1.0;
    const Node& nd = nodes_[server];
    return (1.0 + nd.queue_ewma) * (1.0 + nd.rtt_ewma_us);
  }

  [[nodiscard]] double queue_estimate(std::size_t server) const noexcept {
    return server < nodes_.size() ? nodes_[server].queue_ewma : 0.0;
  }
  [[nodiscard]] std::uint64_t samples(std::size_t server) const noexcept {
    return server < nodes_.size() ? nodes_[server].samples : 0;
  }

  /// Total observations across all servers. Zero means the tracker has
  /// learned nothing yet — callers use this to keep cold-start selection
  /// on the plain (deterministic) path.
  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return total_samples_;
  }

  /// Orders fragment slots cheapest-owner-first, in place. `owner_of_slot`
  /// maps slot i to its server index. The ranking is stable (equal scores
  /// keep slot order); with `randomize_ties`, adjacent slots whose owner
  /// scores are within 5% are swapped by a seeded coin flip —
  /// power-of-two-choices among near-equals, so repeated selections spread
  /// over peers instead of always hitting the same "marginally best"
  /// server. Only the randomized path draws RNG (see rank_slots).
  void order_slots(std::span<std::size_t> slots,
                   std::span<const std::size_t> owner_of_slot,
                   bool randomize_ties) {
    rank_slots(
        slots,
        [&](std::size_t slot) {
          return slot < owner_of_slot.size() ? score(owner_of_slot[slot])
                                             : 1.0;
        },
        randomize_ties ? &rng_ : nullptr);
  }

 private:
  struct Node {
    double queue_ewma = 0.0;
    double rtt_ewma_us = 0.0;
    std::uint64_t samples = 0;
  };

  [[nodiscard]] static double mix(double ewma, double sample,
                                  bool first) noexcept {
    return first ? sample : (1.0 - kAlpha) * ewma + kAlpha * sample;
  }

  std::vector<Node> nodes_;
  std::uint64_t total_samples_ = 0;
  Xoshiro256 rng_;
};

}  // namespace hpres::resilience
