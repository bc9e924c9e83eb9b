#include "ec/codec.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "ec/cauchy_rs.h"
#include "ec/raid6.h"
#include "ec/rs_vandermonde.h"

namespace hpres::ec {

namespace {
const GF256& gf() { return GF256::instance(); }

/// Greedy rank-building pass: walks `candidates` in order, accepting each
/// row of `generator` that is independent of the rows accepted so far,
/// until k rows span the data space. Pivot columns are cached per accepted
/// row so each candidate reduces in O(k^2). nullopt when the candidates
/// never reach rank k (erasure pattern not decodable).
std::optional<std::vector<std::size_t>> greedy_spanning_subset(
    const GfMatrix& generator, std::size_t k,
    const std::vector<std::size_t>& candidates) {
  std::vector<std::size_t> survivors;
  GfMatrix echelon(k, k);  // row-reduced rows accepted so far
  std::vector<std::size_t> pivot_cols;
  pivot_cols.reserve(k);
  std::size_t rank = 0;
  for (const std::size_t idx : candidates) {
    if (rank == k) break;
    // Reduce the candidate row against the accepted basis.
    std::vector<std::uint8_t> row(k);
    for (std::size_t c = 0; c < k; ++c) row[c] = generator.at(idx, c);
    for (std::size_t r = 0; r < rank; ++r) {
      const std::size_t pivot = pivot_cols[r];
      if (row[pivot] == 0) continue;
      const std::uint8_t factor = gf().div(row[pivot], echelon.at(r, pivot));
      for (std::size_t c = 0; c < k; ++c) {
        row[c] ^= gf().mul(factor, echelon.at(r, c));
      }
    }
    // The reduced row's first nonzero column becomes its pivot.
    std::size_t pivot = 0;
    while (pivot < k && row[pivot] == 0) ++pivot;
    if (pivot == k) continue;  // dependent on rows already accepted
    for (std::size_t c = 0; c < k; ++c) echelon.at(rank, c) = row[c];
    pivot_cols.push_back(pivot);
    ++rank;
    survivors.push_back(idx);
  }
  if (rank < k) return std::nullopt;
  return survivors;
}

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

void MatrixCodec::encode_parity_row(std::size_t parity_index,
                                    std::span<const ByteSpan> data,
                                    ByteSpan out) const {
  bool first = true;
  for (std::size_t c = 0; c < k(); ++c) {
    const std::uint8_t coeff = generator_.at(k() + parity_index, c);
    if (first) {
      gf().mul_region(coeff, data[c], out);
      first = false;
    } else {
      gf().mul_region_acc(coeff, data[c], out);
    }
  }
}

Result<std::vector<std::size_t>> MatrixCodec::select_read_set(
    const std::vector<bool>& available,
    std::span<const std::size_t> preference) const {
  const std::vector<std::size_t> candidates =
      ordered_candidates(n(), available, preference);
  if (candidates.size() < k()) {
    return Status{StatusCode::kTooManyFailures,
                  "fewer than k fragments available"};
  }
  std::vector<std::size_t> chosen(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(k()));
  // The top-k choice stands when its rows are independent: at once for k
  // distinct data slots (identity rows of the systematic generator, the
  // healthy read), else by inversion (always true for MDS generators).
  const bool all_data = std::all_of(chosen.begin(), chosen.end(),
                                    [this](std::size_t s) { return s < k(); });
  if (all_data || generator_.select_rows(chosen).inverted().ok()) {
    return chosen;
  }
  std::optional<std::vector<std::size_t>> spanning =
      greedy_spanning_subset(generator_, k(), candidates);
  if (!spanning) {
    return Status{StatusCode::kTooManyFailures,
                  "erasure pattern not decodable by this code"};
  }
  return *spanning;
}

Status MatrixCodec::reconstruct(std::span<ByteSpan> fragments,
                                const std::vector<bool>& present) const {
  return solve_erased(fragments, present, /*data_only=*/false);
}

Status MatrixCodec::reconstruct_data(std::span<ByteSpan> fragments,
                                     const std::vector<bool>& present) const {
  return solve_erased(fragments, present, /*data_only=*/true);
}

Result<MatrixCodec::RecoveryPlan> MatrixCodec::plan_recovery(
    const std::vector<bool>& present) const {
  if (present.size() != n()) {
    return Status{StatusCode::kInvalidArgument,
                  "present arity must equal k+m"};
  }
  RecoveryPlan plan;
  // Prefer data rows as survivors: a present data fragment contributes
  // itself verbatim, keeping the inverted matrix sparse.
  std::vector<std::size_t> candidates;
  candidates.reserve(n());
  for (std::size_t i = 0; i < k(); ++i) {
    if (present[i]) {
      candidates.push_back(i);
    } else {
      plan.erased_data.push_back(i);
    }
  }
  for (std::size_t i = k(); i < n(); ++i) {
    if (present[i]) {
      candidates.push_back(i);
    } else {
      plan.erased_parity.push_back(i);
    }
  }
  if (candidates.size() < k()) {
    return Status{StatusCode::kTooManyFailures,
                  "fewer than k fragments available"};
  }

  // Select k candidates whose generator rows are linearly independent. For
  // MDS codes the first k always work; for non-MDS codes (LRC) a greedy
  // rank-building pass over all survivors finds a spanning subset whenever
  // the erasure pattern is information-theoretically decodable.
  plan.survivors.assign(candidates.begin(),
                        candidates.begin() + static_cast<std::ptrdiff_t>(k()));
  Result<GfMatrix> inv = generator_.select_rows(plan.survivors).inverted();
  if (!inv.ok() && candidates.size() > k()) {
    std::optional<std::vector<std::size_t>> spanning =
        greedy_spanning_subset(generator_, k(), candidates);
    if (!spanning) {
      return Status{StatusCode::kTooManyFailures,
                    "erasure pattern not decodable by this code"};
    }
    plan.survivors = std::move(*spanning);
    inv = generator_.select_rows(plan.survivors).inverted();
  }
  if (!inv.ok()) {
    return Status{StatusCode::kTooManyFailures,
                  "erasure pattern not decodable by this code"};
  }

  if (!plan.erased_data.empty()) {
    plan.coeffs = GfMatrix(plan.erased_data.size(), k());
    for (std::size_t j = 0; j < plan.erased_data.size(); ++j) {
      for (std::size_t i = 0; i < k(); ++i) {
        plan.coeffs.at(j, i) = inv->at(plan.erased_data[j], i);
      }
    }
  }
  return plan;
}

Status MatrixCodec::solve_erased(std::span<ByteSpan> fragments,
                                 const std::vector<bool>& present,
                                 bool data_only) const {
  if (fragments.size() != n()) {
    return Status{StatusCode::kInvalidArgument,
                  "fragment arity must equal k+m"};
  }
  Result<RecoveryPlan> plan = plan_recovery(present);
  if (!plan.ok()) return plan.status();

  if (!plan->erased_data.empty()) {
    // Fused pass over the survivors: each survivor tile is read once while
    // it accumulates into every erased-data output.
    StripeCoder recover(plan->erased_data.size(), k());
    for (std::size_t j = 0; j < plan->erased_data.size(); ++j) {
      for (std::size_t i = 0; i < k(); ++i) {
        recover.set(j, i, plan->coeffs.at(j, i));
      }
    }
    std::vector<ConstByteSpan> sources;
    sources.reserve(k());
    for (const std::size_t s : plan->survivors) sources.push_back(fragments[s]);
    std::vector<ByteSpan> outputs;
    outputs.reserve(plan->erased_data.size());
    for (const std::size_t d : plan->erased_data) {
      outputs.push_back(fragments[d]);
    }
    recover.apply(sources, outputs);
  }

  if (!data_only) {
    // Parity re-encode needs all data fragments, which are now complete.
    std::vector<ByteSpan> data(
        fragments.begin(),
        fragments.begin() + static_cast<std::ptrdiff_t>(k()));
    for (const std::size_t p : plan->erased_parity) {
      encode_parity_row(p - k(), data, fragments[p]);
    }
  }
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
