// Locally Repairable Codes (Azure-LRC style) — the paper's future-work
// direction for minimizing recovery overheads ("optimized erasure codes
// such as locally repairable codes", Section VIII).
//
// LRC(k, l, g) splits the k data fragments into l equal local groups, adds
// one XOR local parity per group and g Reed-Solomon-style global parities
// (n = k + l + g). A single lost fragment rebuilds from its group — k/l
// reads instead of k — while the global parities keep multi-failure
// tolerance: this construction verifies at build time that every erasure
// pattern of up to g+1 fragments is decodable (the Azure LRC guarantee).
// The price is storage overhead (k+l+g)/k > (k+g')/k for comparable MDS
// tolerance: repair locality is bought with extra parity.
#pragma once

#include <optional>

#include "ec/codec.h"

namespace hpres::ec {

class LrcCodec final : public MatrixCodec {
 public:
  /// Requires k % l == 0, l >= 1, g >= 0, k + l + g <= kMaxSlots.
  /// Construction searches deterministically for global-parity
  /// coefficients satisfying the (g+1)-failure decodability guarantee and
  /// asserts success (small codes only need the first candidate), then
  /// registers each data and local-parity slot's local repair set.
  ///
  /// Repair locality: a single wanted slot whose local group is intact
  /// reads only the group — a data slot its group peers plus the local
  /// parity (group_size reads), a local parity its group's data. Global
  /// parities, several wanted slots and broken groups take the any-k
  /// selection of MatrixCodec.
  LrcCodec(std::size_t k, std::size_t l, std::size_t g);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "lrc";
  }

  [[nodiscard]] std::size_t local_groups() const noexcept { return l_; }
  [[nodiscard]] std::size_t global_parities() const noexcept { return g_; }
  [[nodiscard]] std::size_t group_size() const noexcept { return k() / l_; }

  /// Local group (0..l-1) of a data or local-parity slot; nullopt for
  /// global parities.
  [[nodiscard]] std::optional<std::size_t> group_of(std::size_t slot) const;

 private:
  static GfMatrix build_generator(std::size_t k, std::size_t l,
                                  std::size_t g);

  std::size_t l_;
  std::size_t g_;
};

}  // namespace hpres::ec
