#include "ec/cauchy_rs.h"

namespace hpres::ec {

// The GF-domain coefficients stay valid in the bit-sliced domain after bit
// expansion: multiplication by a field element is the same linear map
// either way.
CauchyRsCodec::CauchyRsCodec(std::size_t k, std::size_t m)
    : MatrixCodec(k, m, systematic_cauchy_generator(k, m),
                  /*bit_sliced=*/true) {}

}  // namespace hpres::ec
