// Reed-Solomon coding with a systematized Vandermonde generator matrix —
// the paper's RS_Van scheme (its chosen codec for 1 KB - 1 MB values).
#pragma once

#include "ec/codec.h"

namespace hpres::ec {

class RsVandermondeCodec final : public MatrixCodec {
 public:
  /// Requires k >= 1, m >= 0, k + m <= kMaxSlots (distinct GF(256)
  /// evaluation points per fragment).
  RsVandermondeCodec(std::size_t k, std::size_t m);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rs_van";
  }
};

}  // namespace hpres::ec
