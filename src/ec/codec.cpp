#include "ec/codec.h"

#include <algorithm>
#include <cassert>

#include "ec/cauchy_rs.h"
#include "ec/raid6.h"
#include "ec/rs_vandermonde.h"

namespace hpres::ec {

namespace {

/// Available slots ordered preference-first (duplicates and unavailable
/// entries in `preference` are skipped), then the remaining available
/// slots in natural order.
std::vector<std::size_t> ordered_candidates(
    std::size_t n, const std::vector<bool>& available,
    std::span<const std::size_t> preference) {
  std::vector<std::size_t> out;
  out.reserve(n);
  // n is a stripe width, so a linear scan of the slots taken so far beats
  // a side table.
  const auto taken = [&out](std::size_t s) {
    return std::find(out.begin(), out.end(), s) != out.end();
  };
  for (const std::size_t s : preference) {
    if (s < available.size() && s < n && available[s] && !taken(s)) {
      out.push_back(s);
    }
  }
  for (std::size_t i = 0; i < n && i < available.size(); ++i) {
    if (available[i] && !taken(i)) out.push_back(i);
  }
  return out;
}
}  // namespace

MatrixCodec::MatrixCodec(std::size_t k, std::size_t m, GfMatrix generator)
    : Codec(k, m),
      generator_(std::move(generator)),
      parity_coder_(m, k) {
  assert(generator_.rows() == k + m && generator_.cols() == k);
#ifndef NDEBUG
  // The generator must be systematic: top k x k block == identity.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      assert(generator_.at(r, c) == (r == c ? 1 : 0));
    }
  }
#endif
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t c = 0; c < k; ++c) {
      parity_coder_.set(p, c, generator_.at(k + p, c));
    }
  }
}

void MatrixCodec::encode(std::span<const ConstByteSpan> data,
                         std::span<ByteSpan> parity) const {
  assert(data.size() == k() && parity.size() == m());
  // Single fused pass: every data tile is read once while it accumulates
  // into all m parity outputs (ec/gf_kernels.h).
  parity_coder_.apply(data, parity);
}

Result<std::vector<std::size_t>> MatrixCodec::select_sources(
    std::span<const std::size_t> want, const std::vector<bool>& available,
    std::span<const std::size_t> preference) const {
  if (std::any_of(want.begin(), want.end(),
                  [this](std::size_t s) { return s >= n(); })) {
    return Status{StatusCode::kInvalidArgument, "wanted slot out of range"};
  }
  const std::vector<std::size_t> candidates =
      ordered_candidates(n(), available, preference);
  if (candidates.size() < k()) {
    return Status{StatusCode::kTooManyFailures,
                  "fewer than k fragments available"};
  }
  // The healthy read: k distinct data slots up front are identity rows.
  const auto top_k = candidates.begin() + static_cast<std::ptrdiff_t>(k());
  if (std::all_of(candidates.begin(), top_k,
                  [this](std::size_t s) { return s < k(); })) {
    return std::vector<std::size_t>(candidates.begin(), top_k);
  }
  RowBasis basis(generator_);
  for (const std::size_t slot : candidates) {
    if (basis.rank() == k()) break;
    basis.add(slot);
  }
  if (basis.rank() < k()) {
    return Status{StatusCode::kTooManyFailures,
                  "erasure pattern not decodable by this code"};
  }
  return basis.rows();
}

Status MatrixCodec::decode(std::span<const ByteSpan> fragments,
                           std::span<const std::size_t> sources,
                           std::span<const std::size_t> want) const {
  if (fragments.size() != n()) {
    return Status{StatusCode::kInvalidArgument,
                  "fragment arity must equal k+m"};
  }
  RowBasis basis(generator_);
  for (const std::size_t s : sources) {
    if (s >= n() || !basis.add(s)) {
      return Status{StatusCode::kInvalidArgument,
                    "sources must be distinct independent slots"};
    }
  }
  const auto listed = [](std::span<const std::size_t> slots, std::size_t s) {
    return std::find(slots.begin(), slots.end(), s) != slots.end();
  };
  std::vector<std::size_t> outputs;
  outputs.reserve(want.size());
  for (const std::size_t w : want) {
    if (w >= n()) {
      return Status{StatusCode::kInvalidArgument, "wanted slot out of range"};
    }
    if (!listed(sources, w) && !listed(outputs, w)) outputs.push_back(w);
  }
  if (outputs.empty()) return Status::Ok();
  if (sources.empty()) {
    return Status{StatusCode::kTooManyFailures, "no sources to decode from"};
  }
  // The kernels run every span over one length: a short source (a stale or
  // truncated fragment) would be read past its end.
  const auto short_or_long = [&](std::size_t s) {
    return fragments[s].size() != fragments[outputs[0]].size();
  };
  if (std::any_of(sources.begin(), sources.end(), short_or_long) ||
      std::any_of(outputs.begin(), outputs.end(), short_or_long)) {
    return Status{StatusCode::kInvalidArgument, "fragment lengths differ"};
  }

  // One coefficient matrix: each wanted row over the source rows.
  GfMatrix coeffs(outputs.size(), sources.size());
  for (std::size_t r = 0; r < outputs.size(); ++r) {
    if (!basis.express(outputs[r], &coeffs.at(r, 0))) {
      return Status{StatusCode::kTooManyFailures,
                    "sources do not span a wanted slot"};
    }
  }
  std::vector<ConstByteSpan> in;
  in.reserve(sources.size());
  for (const std::size_t s : sources) in.push_back(fragments[s]);
  std::vector<ByteSpan> out;
  out.reserve(outputs.size());
  for (const std::size_t w : outputs) out.push_back(fragments[w]);
  apply(coeffs, in, out);
  return Status::Ok();
}

void MatrixCodec::apply(const GfMatrix& coeffs,
                        std::span<const ConstByteSpan> sources,
                        std::span<ByteSpan> outputs) const {
  // Fused pass: each source tile is read once while it accumulates into
  // every output.
  StripeCoder coder(coeffs.rows(), coeffs.cols());
  for (std::size_t r = 0; r < coeffs.rows(); ++r) {
    for (std::size_t c = 0; c < coeffs.cols(); ++c) {
      coder.set(r, c, coeffs.at(r, c));
    }
  }
  coder.apply(sources, outputs);
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
