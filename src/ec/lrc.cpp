#include "ec/lrc.h"

#include <cassert>

namespace hpres::ec {

namespace {

const GF256& gf() { return GF256::instance(); }

/// True if the code decodes every erasure pattern of exactly `failures`
/// fragments (survivor rows span rank k).
bool all_patterns_decodable(const GfMatrix& gen, std::size_t k,
                            std::size_t failures) {
  const std::size_t n = gen.rows();
  for (SlotMask failed = first_slots(failures); failed < slot_bit(n);
       failed = next_combination(failed)) {
    RowBasis survivors(gen);
    for (std::size_t i = 0; i < n; ++i) {
      if (!has_slot(failed, i)) survivors.add(i);
    }
    if (survivors.rank() < k) return false;
  }
  return true;
}

}  // namespace

GfMatrix LrcCodec::build_generator(std::size_t k, std::size_t l,
                                   std::size_t g) {
  assert(l >= 1 && k % l == 0 && k + l + g <= kMaxSlots);
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
    : MatrixCodec(k, l + g, build_generator(k, l, g)), l_(l), g_(g) {
  // A slot's group: the group's data plus its local parity, minus the slot.
  for (std::size_t group = 0; group < l; ++group) {
    const SlotMask members =
        (first_slots(group_size()) << (group * group_size())) |
        slot_bit(k + group);
    for (std::size_t slot = 0; slot < k + l; ++slot) {
      if (has_slot(members, slot)) {
        add_local_repair(slot, members & ~slot_bit(slot));
      }
    }
  }
}

std::optional<std::size_t> LrcCodec::group_of(std::size_t slot) const {
  if (slot < k()) return slot / group_size();
  if (slot < k() + l_) return slot - k();
  return std::nullopt;  // global parity
}

}  // namespace hpres::ec
