#include "ec/lrc.h"

#include <algorithm>
#include <cassert>

namespace hpres::ec {

namespace {

const GF256& gf() { return GF256::instance(); }

/// True if the code decodes every erasure pattern of exactly `failures`
/// fragments (survivor rows span rank k).
bool all_patterns_decodable(const GfMatrix& gen, std::size_t k,
                            std::size_t failures) {
  const std::size_t n = gen.rows();
  std::vector<bool> failed(n, false);
  std::fill(failed.begin(), failed.begin() + static_cast<std::ptrdiff_t>(failures),
            true);
  // Enumerate combinations via prev_permutation over the failure mask.
  std::sort(failed.begin(), failed.end(), std::greater<>());
  do {
    RowBasis survivors(gen);
    for (std::size_t i = 0; i < n; ++i) {
      if (!failed[i]) survivors.add(i);
    }
    if (survivors.rank() < k) return false;
  } while (std::prev_permutation(failed.begin(), failed.end()));
  return true;
}

}  // namespace

GfMatrix LrcCodec::build_generator(std::size_t k, std::size_t l,
                                   std::size_t g) {
  assert(l >= 1 && k % l == 0 && k + l + g <= GF256::kFieldSize);
  const std::size_t gs = k / l;
  const std::size_t n = k + l + g;

  for (unsigned seed = 0; seed < 64; ++seed) {
    GfMatrix gen(n, k);
    for (std::size_t i = 0; i < k; ++i) gen.at(i, i) = 1;
    // Local parities: plain XOR over each group.
    for (std::size_t j = 0; j < l; ++j) {
      for (std::size_t c = j * gs; c < (j + 1) * gs; ++c) {
        gen.at(k + j, c) = 1;
      }
    }
    // Global parities: geometric rows over distinct field elements; the
    // seed walks the element choice until the decodability check passes.
    for (std::size_t r = 0; r < g; ++r) {
      const std::uint8_t alpha =
          gf().exp(static_cast<unsigned>(seed * 17 + 2 * r + 1));
      for (std::size_t c = 0; c < k; ++c) {
        gen.at(k + l + r, c) = gf().pow(alpha, static_cast<unsigned>(c + 1));
      }
    }
    // Azure LRC guarantee: every pattern of up to g+1 failures decodes.
    bool ok = true;
    for (std::size_t f = 1; f <= g + 1 && ok; ++f) {
      ok = all_patterns_decodable(gen, k, f);
    }
    if (ok) return gen;
  }
  assert(false && "no LRC coefficient assignment found (code too large?)");
  return GfMatrix(n, k);
}

LrcCodec::LrcCodec(std::size_t k, std::size_t l, std::size_t g)
    : MatrixCodec(k, l + g, build_generator(k, l, g)), l_(l), g_(g) {}

std::optional<std::size_t> LrcCodec::group_of(std::size_t slot) const {
  if (slot < k()) return slot / group_size();
  if (slot < k() + l_) return slot - k();
  return std::nullopt;  // global parity
}

Result<std::vector<std::size_t>> LrcCodec::select_sources(
    std::span<const std::size_t> want, const std::vector<bool>& available,
    std::span<const std::size_t> preference) const {
  const std::optional<std::size_t> group =
      want.size() == 1 ? group_of(want[0]) : std::nullopt;
  if (!group) return MatrixCodec::select_sources(want, available, preference);
  const std::size_t slot = want[0];
  std::vector<std::size_t> sources;
  sources.reserve(group_size());
  // Group members (data) plus the local parity, minus the slot itself.
  for (std::size_t c = *group * group_size(); c < (*group + 1) * group_size();
       ++c) {
    if (c != slot) sources.push_back(c);
  }
  const std::size_t local_parity = k() + *group;
  if (slot != local_parity) sources.push_back(local_parity);
  for (const std::size_t s : sources) {
    if (s >= available.size() || !available[s]) {
      // A second loss in the group: no shortcut.
      return MatrixCodec::select_sources(want, available, preference);
    }
  }
  return sources;
}

}  // namespace hpres::ec
