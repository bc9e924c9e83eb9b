#include "ec/codec.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "ec/cauchy_rs.h"
#include "ec/raid6.h"
#include "ec/rs_vandermonde.h"

namespace hpres::ec {

CodingMatrix::CodingMatrix(const GfMatrix& coeffs, bool bit_sliced)
    : bit_sliced_(bit_sliced) {
  if (bit_sliced) {
    bits_ = BitMatrix::from_gf_matrix(coeffs);
    return;
  }
  gf_ = StripeCoder(coeffs.rows(), coeffs.cols());
  for (std::size_t r = 0; r < coeffs.rows(); ++r) {
    for (std::size_t c = 0; c < coeffs.cols(); ++c) {
      gf_.set(r, c, coeffs.at(r, c));
    }
  }
}

void CodingMatrix::apply(std::span<const ConstByteSpan> sources,
                         std::span<ByteSpan> outputs) const {
  if (bit_sliced_) {
    // One bit per packet of a GF(2^8) element: w = 8 packets per fragment.
    bitmatrix_apply(bits_, CauchyRsCodec::kW, sources, outputs);
  } else {
    // Fused pass: each source tile is read once while it accumulates into
    // every output.
    gf_.apply(sources, outputs);
  }
}

Codec::Codec(std::size_t k, std::size_t m) : k_(k), m_(m) {
  assert(k >= 1 && k + m <= kMaxSlots && "codec wider than a SlotMask");
}

namespace {

/// The parity block of a systematic generator: its last m rows.
GfMatrix parity_block(const GfMatrix& generator, std::size_t k,
                      std::size_t m) {
  GfMatrix out(m, k);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < k; ++c) out.at(r, c) = generator.at(k + r, c);
  }
  return out;
}

}  // namespace

MatrixCodec::MatrixCodec(std::size_t k, std::size_t m, GfMatrix generator,
                         bool bit_sliced)
    : Codec(k, m),
      generator_(std::move(generator)),
      bit_sliced_(bit_sliced),
      parity_(parity_block(generator_, k, m), bit_sliced),
      by_mask_(std::size_t{1} << (k + m), kDependent) {
  assert(generator_.rows() == k + m && generator_.cols() == k);
#ifndef NDEBUG
  // The generator must be systematic: top k x k block == identity.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      assert(generator_.at(r, c) == (r == c ? 1 : 0));
    }
  }
#endif
  // Every k-subset whose rows are independent gets a plan, and every
  // subset of it is independent: any independent set extends to k
  // independent rows.
  by_mask_[0] = kIndependent;
  for (SlotMask set = first_slots(k); set < slot_bit(n());
       set = next_combination(set)) {
    if (!add_plan(set)) continue;
    for (SlotMask sub = set; sub != 0; sub = (sub - 1) & set) {
      if (by_mask_[sub] == kDependent) by_mask_[sub] = kIndependent;
    }
  }
}

bool MatrixCodec::add_plan(SlotMask sources) {
  assert(sources != 0);
  if (by_mask_[sources] >= kFirstPlan) return true;
  RowBasis basis(generator_);
  for (std::size_t s = 0; s < n(); ++s) {
    if (has_slot(sources, s) && !basis.add(s)) return false;
  }
  // Coefficient rows of every slot the sources produce, in slot order:
  // data slots first, so the missing-data rows are the leading block.
  const std::size_t cols = basis.rank();
  std::vector<std::uint8_t> rows((n() - cols) * cols);
  DecodePlan plan;
  plan.sources = sources;
  std::size_t count = 0;
  std::size_t data_rows = 0;
  for (std::size_t s = 0; s < n(); ++s) {
    if (has_slot(sources, s) || !basis.express(s, &rows[count * cols])) {
      continue;
    }
    plan.rebuilds |= slot_bit(s);
    if (s < k()) ++data_rows;
    ++count;
  }
  plan.coeffs = GfMatrix(count, cols);
  for (std::size_t r = 0; r < count; ++r) {
    std::copy_n(&rows[r * cols], cols, &plan.coeffs.at(r, 0));
  }
  GfMatrix data(data_rows, cols);
  for (std::size_t r = 0; r < data_rows; ++r) {
    std::copy_n(plan.coeffs.row(r), cols, &data.at(r, 0));
  }
  plan.missing_data = CodingMatrix(data, bit_sliced_);
  assert(plans_.size() + kFirstPlan <= 0xFFFF);
  by_mask_[sources] = static_cast<std::uint16_t>(plans_.size() + kFirstPlan);
  plans_.push_back(std::move(plan));
  return true;
}

const DecodePlan* MatrixCodec::plan_of(SlotMask sources) const noexcept {
  const std::uint16_t entry = by_mask_[sources];
  return entry >= kFirstPlan ? &plans_[entry - kFirstPlan] : nullptr;
}

void MatrixCodec::add_local_repair(std::size_t slot, SlotMask sources) {
  assert(slot < n() && sources != 0 && (sources & ~all_slots()) == 0);
  [[maybe_unused]] const bool independent = add_plan(sources);
  assert(independent && "a local repair set must have independent rows");
  local_[slot] = sources;
}

void MatrixCodec::encode(std::span<const ConstByteSpan> data,
                         std::span<ByteSpan> parity) const {
  assert(data.size() == k() && parity.size() == m());
  parity_.apply(data, parity);
}

Result<ReadSet> MatrixCodec::select(
    SlotMask want, SlotMask available,
    std::span<const std::size_t> preference) const {
  if ((want & ~all_slots()) != 0) {
    return Status{StatusCode::kInvalidArgument, "wanted slot out of range"};
  }
  available &= all_slots();
  ReadSet out;
  if (std::has_single_bit(want)) {
    const SlotMask local =
        local_[static_cast<std::size_t>(std::countr_zero(want))];
    if (local != 0 && (local & ~available) == 0) {
      for (std::size_t s = 0; s < n(); ++s) {
        if (has_slot(local, s)) out.push(s);
      }
      out.plan_ = plan_of(local);
      return out;
    }
  }
  if (static_cast<std::size_t>(std::popcount(available)) < k()) {
    return Status{StatusCode::kTooManyFailures,
                  "fewer than k fragments available"};
  }
  // Candidates in order; a slot whose row depends on those already taken
  // stays dependent as more are taken, so one look at each suffices.
  const auto consider = [&](std::size_t s) {
    if (out.size() == k() || !has_slot(available, s) || out.contains(s) ||
        by_mask_[out.mask() | slot_bit(s)] == kDependent) {
      return;
    }
    out.push(s);
  };
  for (const std::size_t s : preference) consider(s);
  for (std::size_t s = 0; s < n(); ++s) consider(s);
  if (out.size() < k()) {
    return Status{StatusCode::kTooManyFailures,
                  "erasure pattern not decodable by this code"};
  }
  out.plan_ = plan_of(out.mask());
  assert(out.plan_ != nullptr);
  return out;
}

Result<ReadSet> MatrixCodec::bind(std::span<const std::size_t> sources) const {
  ReadSet out;
  for (const std::size_t s : sources) {
    if (s >= n() || out.contains(s)) {
      return Status{StatusCode::kInvalidArgument,
                    "sources must be distinct independent slots"};
    }
    out.push(s);
  }
  if (by_mask_[out.mask()] == kDependent) {
    return Status{StatusCode::kInvalidArgument,
                  "sources must be distinct independent slots"};
  }
  out.plan_ = plan_of(out.mask());
  if (out.plan_ == nullptr) {
    return Status{StatusCode::kTooManyFailures,
                  "sources produce no slot beyond themselves"};
  }
  return out;
}

Status MatrixCodec::decode(const ReadSet& sources,
                           std::span<const ConstByteSpan> fragments,
                           SlotMask want,
                           std::span<const ByteSpan> outputs) const {
  if (fragments.size() != n() || outputs.size() != n()) {
    return Status{StatusCode::kInvalidArgument,
                  "fragment arity must equal k+m"};
  }
  if ((want & ~all_slots()) != 0) {
    return Status{StatusCode::kInvalidArgument, "wanted slot out of range"};
  }
  const SlotMask out_mask = want & ~sources.mask();
  if (out_mask == 0) return Status::Ok();
  const DecodePlan* plan = sources.plan();
  if (plan == nullptr) {
    return Status{StatusCode::kTooManyFailures, "no sources to decode from"};
  }
  if ((out_mask & ~plan->rebuilds) != 0) {
    return Status{StatusCode::kTooManyFailures,
                  "sources do not span a wanted slot"};
  }
  // The plan's columns and rows run in slot order.
  std::array<ConstByteSpan, kMaxSlots> in;
  std::array<ByteSpan, kMaxSlots> out;
  std::size_t ins = 0;
  std::size_t outs = 0;
  for (std::size_t s = 0; s < n(); ++s) {
    if (has_slot(plan->sources, s)) in[ins++] = fragments[s];
    if (has_slot(out_mask, s)) out[outs++] = outputs[s];
  }
  // The kernels run every span over one length: a short source (a stale or
  // truncated fragment) would be read past its end.
  const std::size_t len = out[0].size();
  const auto other_length = [len](const auto& span) {
    return span.size() != len;
  };
  if (std::any_of(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(ins),
                  other_length) ||
      std::any_of(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(outs),
                  other_length)) {
    return Status{StatusCode::kInvalidArgument, "fragment lengths differ"};
  }
  const std::span<const ConstByteSpan> in_spans(in.data(), ins);
  const std::span<ByteSpan> out_spans(out.data(), outs);
  if (out_mask == (plan->rebuilds & data_mask())) {
    plan->missing_data.apply(in_spans, out_spans);
    return Status::Ok();
  }
  // Any other want (a repair's parity, a slice's part of the data): the
  // plan's rows for exactly those slots.
  GfMatrix rows(outs, ins);
  std::size_t r = 0;
  std::size_t row = 0;
  for (std::size_t s = 0; s < n(); ++s) {
    if (!has_slot(plan->rebuilds, s)) continue;
    if (has_slot(out_mask, s)) {
      std::copy_n(plan->coeffs.row(row), ins, &rows.at(r++, 0));
    }
    ++row;
  }
  CodingMatrix(rows, bit_sliced_).apply(in_spans, out_spans);
  return Status::Ok();
}

std::string_view to_string(Scheme s) noexcept {
  switch (s) {
    case Scheme::kRsVandermonde: return "rs_van";
    case Scheme::kCauchyRs: return "crs";
    case Scheme::kRaid6: return "raid6";
  }
  return "unknown";
}

std::unique_ptr<Codec> make_codec(Scheme scheme, std::size_t k,
                                  std::size_t m) {
  switch (scheme) {
    case Scheme::kRsVandermonde:
      return std::make_unique<RsVandermondeCodec>(k, m);
    case Scheme::kCauchyRs:
      return std::make_unique<CauchyRsCodec>(k, m);
    case Scheme::kRaid6:
      return std::make_unique<Raid6Codec>(k, m);
  }
  return nullptr;
}

}  // namespace hpres::ec
