#include "ec/cauchy_rs.h"

#include <cassert>

namespace hpres::ec {

namespace {

/// Extracts the m x k parity block of a systematic generator as a matrix.
GfMatrix parity_block(const GfMatrix& generator, std::size_t k,
                      std::size_t m) {
  GfMatrix out(m, k);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < k; ++c) out.at(r, c) = generator.at(k + r, c);
  }
  return out;
}

}  // namespace

CauchyRsCodec::CauchyRsCodec(std::size_t k, std::size_t m)
    : MatrixCodec(k, m, systematic_cauchy_generator(k, m)),
      parity_bits_(BitMatrix::from_gf_matrix(parity_block(generator(), k, m))) {
  assert(k >= 1 && k + m <= GF256::kFieldSize);
}

void CauchyRsCodec::encode(std::span<const ConstByteSpan> data,
                           std::span<ByteSpan> parity) const {
  bitmatrix_apply(parity_bits_, kW, data, parity);
}

void CauchyRsCodec::apply(const GfMatrix& coeffs,
                          std::span<const ConstByteSpan> sources,
                          std::span<ByteSpan> outputs) const {
  bitmatrix_apply(BitMatrix::from_gf_matrix(coeffs), kW, sources, outputs);
}

}  // namespace hpres::ec
