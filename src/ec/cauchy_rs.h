// Cauchy Reed-Solomon coding (the paper's CRS scheme): the systematic
// Cauchy generator is expanded into a bit matrix and applied with pure XOR
// packet operations. Data is bit-sliced, so reconstruction also goes
// through bit matrices, expanded from the decode coefficient matrix.
#pragma once

#include "ec/bitmatrix.h"
#include "ec/codec.h"

namespace hpres::ec {

class CauchyRsCodec final : public MatrixCodec {
 public:
  static constexpr unsigned kW = 8;  ///< bits per field element / packets per fragment

  /// Requires k >= 1, m >= 0, k + m <= 256.
  CauchyRsCodec(std::size_t k, std::size_t m);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "crs";
  }
  [[nodiscard]] std::size_t alignment() const noexcept override { return kW; }

  void encode(std::span<const ConstByteSpan> data,
              std::span<ByteSpan> parity) const override;

 private:
  /// The GF-domain coefficients stay valid in the bit-sliced domain after
  /// bit expansion: multiplication by a field element is the same linear
  /// map either way.
  void apply(const GfMatrix& coeffs, std::span<const ConstByteSpan> sources,
             std::span<ByteSpan> outputs) const override;

  BitMatrix parity_bits_;  // (m*8) x (k*8) expansion of the Cauchy block
};

}  // namespace hpres::ec
