#include "workload/zipf.h"

#include <cassert>
#include <cmath>

namespace hpres::workload {

ZipfianGenerator::ZipfianGenerator(std::uint64_t items) : items_(items) {
  assert(items >= 1);
  alpha_ = 1.0 / (1.0 - kYcsbTheta);
  zetan_ = zeta(items);
  const double zeta2 = zeta(2);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items), 1.0 - kYcsbTheta)) /
         (1.0 - zeta2 / zetan_);
}

double ZipfianGenerator::zeta(std::uint64_t n) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), kYcsbTheta);
  }
  return sum;
}

std::uint64_t ZipfianGenerator::next(Xoshiro256& rng) const {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, kYcsbTheta)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(items_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= items_ ? items_ - 1 : rank;
}

}  // namespace hpres::workload
