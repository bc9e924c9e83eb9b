// Erasure codec interface and the shared generator-matrix implementation.
//
// A codec over (k, m) turns k equal-sized data fragments into m parity
// fragments such that the original data survives the loss of any m of the
// k+m fragments (maximum distance separable property). Fragment indices
// 0..k-1 are data, k..k+m-1 are parity, matching the paper's RS(K,M)
// terminology where N = K + M fragments are spread over N servers.
//
// Reads are planned, not solved: a codec builds one DecodePlan per source
// set it can decode from when it is constructed (every k-subset whose
// generator rows are independent, plus LRC's local repair groups), and the
// table is immutable afterwards, so every shard shares it. A read names its
// slots with SlotMasks, selects a ReadSet (the slots to fetch, in issue
// order, bound to their plan) and decodes by applying the plan's ready-made
// coefficients over the fetched fragments, which it only reads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/bitmatrix.h"
#include "ec/gf_kernels.h"
#include "ec/gf_matrix.h"

namespace hpres::ec {

/// Widest codec (k+m) in the system: slot sets are 16-bit masks, and a
/// read's per-slot state lives in arrays of this size.
inline constexpr std::size_t kMaxSlots = 16;

/// A set of slots: bit s is slot s.
using SlotMask = std::uint32_t;

[[nodiscard]] constexpr SlotMask slot_bit(std::size_t slot) noexcept {
  return SlotMask{1} << slot;
}
/// Slots 0..count-1.
[[nodiscard]] constexpr SlotMask first_slots(std::size_t count) noexcept {
  return (SlotMask{1} << count) - 1;
}
[[nodiscard]] constexpr bool has_slot(SlotMask mask,
                                      std::size_t slot) noexcept {
  return slot < kMaxSlots && ((mask >> slot) & 1u) != 0;
}
/// The next larger mask with as many slots (Gosper's hack): stepping from
/// first_slots(c) visits every c-slot set in increasing order. `mask` must
/// be non-empty.
[[nodiscard]] constexpr SlotMask next_combination(SlotMask mask) noexcept {
  const SlotMask low = mask & (~mask + 1);
  const SlotMask ripple = mask + low;
  return (((ripple ^ mask) >> 2) / low) | ripple;
}

/// A coefficient matrix ready to run over fragments:
/// outputs[r] = sum_c coeff(r, c) * sources[c], with the fused GF(2^8)
/// stripe kernel or, for a bit-sliced codec, the coefficients' XOR bit
/// expansion (the same linear map on bit-sliced data).
class CodingMatrix {
 public:
  CodingMatrix() = default;
  CodingMatrix(const GfMatrix& coeffs, bool bit_sliced);

  /// sources.size() == cols, outputs.size() == rows, all of one length.
  void apply(std::span<const ConstByteSpan> sources,
             std::span<ByteSpan> outputs) const;

 private:
  StripeCoder gf_;  // GF(2^8) codecs
  BitMatrix bits_;  // bit-sliced codecs
  bool bit_sliced_ = false;
};

/// How one source set decodes, built when the codec is constructed.
struct DecodePlan {
  SlotMask sources = 0;   ///< the slots read
  SlotMask rebuilds = 0;  ///< every other slot the sources produce
  /// One row per `rebuilds` slot, ascending, over the sources, ascending.
  GfMatrix coeffs;
  /// The rows of the data slots among `rebuilds`: a Get's decode.
  CodingMatrix missing_data;
};

/// The slots one read fetches, in the order it issues them, bound to the
/// plan that decodes from them. Inline: selecting one allocates nothing.
class ReadSet {
 public:
  ReadSet() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] SlotMask mask() const noexcept { return mask_; }
  [[nodiscard]] bool contains(std::size_t slot) const noexcept {
    return has_slot(mask_, slot);
  }
  [[nodiscard]] std::size_t operator[](std::size_t i) const noexcept {
    return slots_[i];
  }
  [[nodiscard]] const std::uint8_t* begin() const noexcept {
    return slots_.data();
  }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return slots_.data() + size_;
  }
  /// Non-null once a codec selected the set.
  [[nodiscard]] const DecodePlan* plan() const noexcept { return plan_; }

 private:
  friend class MatrixCodec;
  void push(std::size_t slot) noexcept {
    slots_[size_++] = static_cast<std::uint8_t>(slot);
    mask_ |= slot_bit(slot);
  }

  std::array<std::uint8_t, kMaxSlots> slots_{};
  std::uint8_t size_ = 0;
  SlotMask mask_ = 0;
  const DecodePlan* plan_ = nullptr;
};

class Codec {
 public:
  /// Requires 1 <= k and k + m <= kMaxSlots.
  Codec(std::size_t k, std::size_t m);
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
  /// kInvalidArgument when `want` names a slot past n;
  /// kTooManyFailures when the available slots cannot produce `want`.
  [[nodiscard]] virtual Result<ReadSet> select(
      SlotMask want, SlotMask available,
      std::span<const std::size_t> preference = {}) const = 0;

  /// Fills each slot in `want` that is not a source, by applying the read
  /// set's plan. `fragments` holds n spans by slot, of which the sources
  /// are read (and never written); `outputs` holds n spans by slot, of
  /// which the wanted non-source ones are written. All of one length or
  /// kInvalidArgument; kTooManyFailures when the sources do not produce a
  /// wanted slot.
  [[nodiscard]] virtual Status decode(const ReadSet& sources,
                                      std::span<const ConstByteSpan> fragments,
                                      SlotMask want,
                                      std::span<const ByteSpan> outputs) const = 0;

  /// Slots 0..k-1: the `want` of a Get, and a healthy Get's read set.
  [[nodiscard]] SlotMask data_mask() const noexcept {
    return first_slots(k_);
  }
  /// Every slot, 0..n-1.
  [[nodiscard]] SlotMask all_slots() const noexcept {
    return first_slots(n());
  }

 private:
  std::size_t k_;
  std::size_t m_;
};

/// Codec driven by a systematic (k+m) x k generator matrix over GF(2^8).
/// Encoding applies the parity block as one CodingMatrix. The constructor
/// builds the decode plan table: one row reduction (RowBasis) per
/// independent k-subset yields each other slot's coefficient row over the
/// subset; reads afterwards only look plans up. Concrete codecs differ in
/// generator construction and in whether coefficients run bit-sliced.
class MatrixCodec : public Codec {
 public:
  MatrixCodec(std::size_t k, std::size_t m, GfMatrix generator,
              bool bit_sliced = false);

  void encode(std::span<const ConstByteSpan> data,
              std::span<ByteSpan> parity) const override;

  /// A single wanted slot with a local repair set (LRC) whose slots are
  /// all available reads that set, in slot order, whatever the
  /// preference. Otherwise the read is k slots with independent rows,
  /// which produce any slot, so `want` does not narrow the choice: a
  /// greedy pass over the candidates in order that skips rows dependent
  /// on those already taken, such as a redundant local parity (an MDS
  /// code never skips one, so it takes the first k candidates).
  [[nodiscard]] Result<ReadSet> select(
      SlotMask want, SlotMask available,
      std::span<const std::size_t> preference = {}) const override;

  [[nodiscard]] Status decode(const ReadSet& sources,
                              std::span<const ConstByteSpan> fragments,
                              SlotMask want,
                              std::span<const ByteSpan> outputs) const override;

  [[nodiscard]] const GfMatrix& generator() const noexcept {
    return generator_;
  }
  /// Decode plans built at construction.
  [[nodiscard]] std::size_t plan_count() const noexcept {
    return plans_.size();
  }

 protected:
  /// Makes `sources` (independent rows) the read set that select returns
  /// for a lone wanted `slot` while all of them are available. Called only
  /// from a derived constructor, so the table is fixed once it returns.
  void add_local_repair(std::size_t slot, SlotMask sources);

 private:
  /// by_mask_ entries: dependent rows, independent rows without a plan,
  /// else kFirstPlan + the plan's index.
  static constexpr std::uint16_t kDependent = 0;
  static constexpr std::uint16_t kIndependent = 1;
  static constexpr std::uint16_t kFirstPlan = 2;

  /// Builds and records the plan of `sources`; false when their rows are
  /// dependent.
  bool add_plan(SlotMask sources);
  [[nodiscard]] const DecodePlan* plan_of(SlotMask sources) const noexcept;

  GfMatrix generator_;  // (k+m) x k, top block identity
  bool bit_sliced_;
  CodingMatrix parity_;  // the m x k parity block, for encode
  std::vector<DecodePlan> plans_;
  std::vector<std::uint16_t> by_mask_;  // 2^n entries, indexed by SlotMask
  std::array<SlotMask, kMaxSlots> local_{};  // per wanted slot; 0 = none
};

/// Factory for the three schemes studied in the paper's Figure 4.
enum class Scheme : std::uint8_t { kRsVandermonde, kCauchyRs, kRaid6 };

[[nodiscard]] std::string_view to_string(Scheme s) noexcept;

/// Creates a codec; kRaid6 requires m <= 2.
[[nodiscard]] std::unique_ptr<Codec> make_codec(Scheme scheme, std::size_t k,
                                                std::size_t m);

}  // namespace hpres::ec
