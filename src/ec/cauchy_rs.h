// Cauchy Reed-Solomon coding (the paper's CRS scheme): the systematic
// Cauchy generator is expanded into a bit matrix and applied with pure XOR
// packet operations. Data is bit-sliced, so every coefficient matrix, the
// parity block and each decode plan's rows alike, runs bit-expanded.
#pragma once

#include "ec/codec.h"

namespace hpres::ec {

class CauchyRsCodec final : public MatrixCodec {
 public:
  static constexpr unsigned kW = 8;  ///< bits per field element / packets per fragment

  /// Requires k >= 1, m >= 0, k + m <= kMaxSlots.
  CauchyRsCodec(std::size_t k, std::size_t m);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "crs";
  }
  [[nodiscard]] std::size_t alignment() const noexcept override { return kW; }
};

}  // namespace hpres::ec
