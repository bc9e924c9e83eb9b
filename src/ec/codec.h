// Erasure codec interface and the shared generator-matrix implementation.
//
// A codec over (k, m) turns k equal-sized data fragments into m parity
// fragments such that the original data survives the loss of any m of the
// k+m fragments (maximum distance separable property). Fragment indices
// 0..k-1 are data, k..k+m-1 are parity, matching the paper's RS(K,M)
// terminology where N = K + M fragments are spread over N servers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/gf_kernels.h"
#include "ec/gf_matrix.h"

namespace hpres::ec {

class Codec {
 public:
  Codec(std::size_t k, std::size_t m) : k_(k), m_(m) {}
  virtual ~Codec() = default;
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n() const noexcept { return k_ + m_; }

  /// Stable scheme name for reports ("rs_van", "crs", "raid6").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Computes the m parity fragments from the k data fragments. All spans
  /// must have identical size; `data.size() == k`, `parity.size() == m`.
  /// Fragment sizes must be a multiple of alignment() bytes.
  virtual void encode(std::span<const ConstByteSpan> data,
                      std::span<ByteSpan> parity) const = 0;

  /// Restores every absent fragment in place. `fragments` holds k+m spans
  /// of identical size; `present[i]` says whether fragments[i] currently
  /// holds valid content. Absent spans must point at writable storage.
  /// Fails with kTooManyFailures when fewer than k fragments are present.
  [[nodiscard]] virtual Status reconstruct(
      std::span<ByteSpan> fragments, const std::vector<bool>& present) const = 0;

  /// Like reconstruct, but restores only the *data* fragments (0..k-1) —
  /// the cheap path a Get needs to rebuild a value after failures.
  [[nodiscard]] virtual Status reconstruct_data(
      std::span<ByteSpan> fragments, const std::vector<bool>& present) const = 0;

  /// Required fragment-size alignment in bytes (1 for pure GF codecs, the
  /// packet word size for bit-matrix codecs).
  [[nodiscard]] virtual std::size_t alignment() const noexcept { return 1; }

  /// Minimal set of source fragments from which the single fragment `slot`
  /// can be rebuilt, given the present map — the repair-locality interface
  /// of locally repairable codes. nullopt means "no shortcut: fetch any k"
  /// (the default for MDS codes, where every repair reads k fragments).
  [[nodiscard]] virtual std::optional<std::vector<std::size_t>>
  minimal_repair_sources(std::size_t slot,
                         const std::vector<bool>& present) const {
    (void)slot;
    (void)present;
    return std::nullopt;
  }

  /// Chooses which k fragments a reader should fetch, given which slots
  /// are available: slots whose generator rows span the data. For MDS codes
  /// any k available slots work; non-MDS codes (LRC) must pick an
  /// information-complete subset. Candidates are tried in `preference`
  /// order (e.g. least loaded server first; duplicates and unavailable
  /// entries skipped), then the remaining available slots in slot order,
  /// and the result keeps that order. An empty preference therefore yields
  /// the first decodable slots in slot order: data slots first.
  /// kTooManyFailures when no decodable subset exists.
  [[nodiscard]] virtual Result<std::vector<std::size_t>> select_read_set(
      const std::vector<bool>& available,
      std::span<const std::size_t> preference = {}) const = 0;

  /// Rebuilds fragment `slot` from exactly the fragments named by
  /// minimal_repair_sources (same order). Only meaningful for codecs with
  /// repair locality; the default reports kInvalidArgument.
  [[nodiscard]] virtual Status rebuild_from_sources(
      std::size_t slot, std::span<const ConstByteSpan> sources,
      ByteSpan out) const {
    (void)slot;
    (void)sources;
    (void)out;
    return Status{StatusCode::kInvalidArgument,
                  "codec has no repair locality"};
  }

 private:
  std::size_t k_;
  std::size_t m_;
};

/// Codec driven by a systematic (k+m) x k generator matrix over GF(2^8).
/// Encoding applies the parity block with the fused single-pass stripe
/// kernel (ec/gf_kernels.h) cached at construction; reconstruction inverts
/// the survivor-row submatrix (the textbook RS decode) and runs the erased
/// rows through the same fused kernel. Concrete codecs differ only in
/// generator construction and, optionally, a faster encode.
class MatrixCodec : public Codec {
 public:
  MatrixCodec(std::size_t k, std::size_t m, GfMatrix generator);

  void encode(std::span<const ConstByteSpan> data,
              std::span<ByteSpan> parity) const override;
  [[nodiscard]] Status reconstruct(
      std::span<ByteSpan> fragments,
      const std::vector<bool>& present) const override;
  [[nodiscard]] Status reconstruct_data(
      std::span<ByteSpan> fragments,
      const std::vector<bool>& present) const override;

  [[nodiscard]] const GfMatrix& generator() const noexcept {
    return generator_;
  }

  /// Rank-aware selection: the first k candidates when their generator
  /// rows are independent (always, for MDS generators), else a greedy
  /// spanning pass that still walks candidates in order, skipping linearly
  /// dependent rows such as a redundant local parity.
  [[nodiscard]] Result<std::vector<std::size_t>> select_read_set(
      const std::vector<bool>& available,
      std::span<const std::size_t> preference = {}) const override;

 protected:
  /// How to rebuild the erased fragments from a chosen set of k survivors:
  /// erased data fragment erased_data[j] = sum_i coeffs(j, i) * fragment
  /// survivors[i]; erased parity is re-encoded from the completed data.
  struct RecoveryPlan {
    std::vector<std::size_t> survivors;    // exactly k present indices
    std::vector<std::size_t> erased_data;  // absent indices < k
    std::vector<std::size_t> erased_parity;  // absent indices >= k
    GfMatrix coeffs;  // erased_data.size() x k
  };

  /// Computes the plan, preferring data rows as survivors (their rows of
  /// the generator are unit vectors, keeping the inversion well-behaved).
  [[nodiscard]] Result<RecoveryPlan> plan_recovery(
      const std::vector<bool>& present) const;

  /// Re-encodes one parity fragment from complete data fragments.
  void encode_parity_row(std::size_t parity_index,
                         std::span<const ByteSpan> data,
                         ByteSpan out) const;

 private:
  [[nodiscard]] Status solve_erased(std::span<ByteSpan> fragments,
                                    const std::vector<bool>& present,
                                    bool data_only) const;

  GfMatrix generator_;  // (k+m) x k, top block identity
  StripeCoder parity_coder_;  // m x k parity block, cached for fused encode
};

/// Factory for the three schemes studied in the paper's Figure 4.
enum class Scheme : std::uint8_t { kRsVandermonde, kCauchyRs, kRaid6 };

[[nodiscard]] std::string_view to_string(Scheme s) noexcept;

/// Creates a codec; kRaid6 requires m <= 2.
[[nodiscard]] std::unique_ptr<Codec> make_codec(Scheme scheme, std::size_t k,
                                                std::size_t m);

}  // namespace hpres::ec
