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
  Codec(std::size_t k, std::size_t m) : k_(k), m_(m), data_slots_(k) {
    for (std::size_t i = 0; i < k; ++i) data_slots_[i] = i;
  }
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

  /// Required fragment-size alignment in bytes (1 for pure GF codecs, the
  /// packet word size for bit-matrix codecs).
  [[nodiscard]] virtual std::size_t alignment() const noexcept { return 1; }

  /// Chooses the slots to fetch so that every slot in `want` can be
  /// produced: a Get wants the data slots, a repair the lost slots.
  /// Candidates are the `available` slots, walked in `preference` order
  /// (e.g. least loaded server first; duplicates and unavailable entries
  /// skipped), then the remaining available slots in slot order, and the
  /// result keeps that order. An empty preference therefore yields the
  /// first decodable slots in slot order: data slots first.
  /// kTooManyFailures when the available slots cannot produce `want`.
  [[nodiscard]] virtual Result<std::vector<std::size_t>> select_sources(
      std::span<const std::size_t> want, const std::vector<bool>& available,
      std::span<const std::size_t> preference = {}) const = 0;

  /// Fills each wanted slot from exactly `sources`, as select_sources
  /// returned them. `fragments` holds k+m spans indexed by slot: the source
  /// spans are read, the wanted spans written (wanted slots that are also
  /// sources are left alone), all of one length or kInvalidArgument.
  /// kTooManyFailures when the sources do not span a wanted slot.
  [[nodiscard]] virtual Status decode(
      std::span<const ByteSpan> fragments, std::span<const std::size_t> sources,
      std::span<const std::size_t> want) const = 0;

  /// Slots 0..k-1: the `want` of a Get.
  [[nodiscard]] std::span<const std::size_t> data_slots() const noexcept {
    return data_slots_;
  }

 private:
  std::size_t k_;
  std::size_t m_;
  std::vector<std::size_t> data_slots_;
};

/// Codec driven by a systematic (k+m) x k generator matrix over GF(2^8).
/// Encoding applies the parity block with the fused single-pass stripe
/// kernel (ec/gf_kernels.h) cached at construction. Decoding expresses each
/// wanted generator row over the source rows (one row reduction, RowBasis)
/// and runs the resulting coefficient matrix through the same fused kernel.
/// Concrete codecs differ only in generator construction and, optionally,
/// the kernels that apply a coefficient matrix.
class MatrixCodec : public Codec {
 public:
  MatrixCodec(std::size_t k, std::size_t m, GfMatrix generator);

  void encode(std::span<const ConstByteSpan> data,
              std::span<ByteSpan> parity) const override;

  /// Reads k slots whose generator rows are independent, which produce any
  /// slot, so `want` does not narrow the choice: the first k candidates
  /// when their rows are independent (always, for MDS generators), else a
  /// greedy spanning pass that still walks candidates in order, skipping
  /// linearly dependent rows such as a redundant local parity.
  [[nodiscard]] Result<std::vector<std::size_t>> select_sources(
      std::span<const std::size_t> want, const std::vector<bool>& available,
      std::span<const std::size_t> preference = {}) const override;

  [[nodiscard]] Status decode(
      std::span<const ByteSpan> fragments, std::span<const std::size_t> sources,
      std::span<const std::size_t> want) const override;

  [[nodiscard]] const GfMatrix& generator() const noexcept {
    return generator_;
  }

 protected:
  /// outputs[r] = sum_c coeffs(r, c) * sources[c]: the fused GF(2^8) stripe
  /// kernel. Bit-sliced codecs override it with their XOR kernel.
  virtual void apply(const GfMatrix& coeffs,
                     std::span<const ConstByteSpan> sources,
                     std::span<ByteSpan> outputs) const;

 private:
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
