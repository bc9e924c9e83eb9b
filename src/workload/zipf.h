// Key-popularity generators: uniform, Zipfian (Gray et al.'s method, as in
// YCSB), and scrambled Zipfian (YCSB's default request distribution, which
// spreads the hot items across the keyspace).
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace hpres::workload {

class UniformGenerator {
 public:
  explicit UniformGenerator(std::uint64_t items) : items_(items) {}

  [[nodiscard]] std::uint64_t next(Xoshiro256& rng) const {
    return rng.next_below(items_);
  }

 private:
  std::uint64_t items_;
};

/// Zipfian-distributed ranks in [0, items): rank r is drawn with
/// probability proportional to 1 / (r+1)^kYcsbTheta. Implementation follows
/// Gray et al., "Quickly Generating Billion-Record Synthetic Databases"
/// (the algorithm YCSB uses).
class ZipfianGenerator {
 public:
  /// YCSB's Zipfian constant, the paper's one request skew.
  static constexpr double kYcsbTheta = 0.99;

  explicit ZipfianGenerator(std::uint64_t items);

  [[nodiscard]] std::uint64_t items() const noexcept { return items_; }

  [[nodiscard]] std::uint64_t next(Xoshiro256& rng) const;

 private:
  static double zeta(std::uint64_t n);

  std::uint64_t items_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Zipfian ranks scrambled by a stateless hash so the popular items are not
/// clustered at the low end of the keyspace (YCSB ScrambledZipfian).
class ScrambledZipfianGenerator {
 public:
  explicit ScrambledZipfianGenerator(std::uint64_t items)
      : zipf_(items), items_(items) {}

  [[nodiscard]] std::uint64_t next(Xoshiro256& rng) const {
    // Lemire multiply-shift, not `% items_`: the modulo folds the hash's
    // 2^64 range unevenly onto [0, items), systematically favouring low
    // keys (and, worse, colliding distinct hot ranks more often there).
    __extension__ using Uint128 = unsigned __int128;
    const Uint128 product =
        static_cast<Uint128>(splitmix64(zipf_.next(rng))) * items_;
    return static_cast<std::uint64_t>(product >> 64);
  }

 private:
  ZipfianGenerator zipf_;
  std::uint64_t items_;
};

}  // namespace hpres::workload
