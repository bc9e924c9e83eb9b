#include "ec/gf_matrix.h"

#include <algorithm>
#include <cassert>

namespace hpres::ec {

namespace {
const GF256& gf() { return GF256::instance(); }
}  // namespace

GfMatrix GfMatrix::identity(std::size_t n) {
  GfMatrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out.at(i, i) = 1;
  return out;
}

GfMatrix GfMatrix::vandermonde(std::size_t rows, std::size_t cols) {
  assert(rows <= GF256::kFieldSize && "need distinct field elements per row");
  GfMatrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out.at(r, c) =
          gf().pow(static_cast<std::uint8_t>(r), static_cast<unsigned>(c));
    }
  }
  return out;
}

GfMatrix GfMatrix::cauchy(std::size_t rows, std::size_t cols) {
  assert(rows + cols <= GF256::kFieldSize &&
         "x and y element sets must be disjoint in GF(256)");
  GfMatrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto x = static_cast<std::uint8_t>(r);
      const auto y = static_cast<std::uint8_t>(rows + c);
      out.at(r, c) = gf().inv(static_cast<std::uint8_t>(x ^ y));
    }
  }
  return out;
}

GfMatrix GfMatrix::multiply(const GfMatrix& other) const {
  assert(cols_ == other.rows_);
  GfMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = 0; i < cols_; ++i) {
      const std::uint8_t a = at(r, i);
      if (a == 0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) ^= gf().mul(a, other.at(i, c));
      }
    }
  }
  return out;
}

Result<GfMatrix> GfMatrix::inverted() const {
  if (rows_ != cols_) {
    return Status{StatusCode::kInvalidArgument, "inverse of non-square matrix"};
  }
  const std::size_t n = rows_;
  GfMatrix work = *this;
  GfMatrix inv = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot (any nonzero element works in a field).
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) {
      return Status{StatusCode::kInternal, "singular matrix"};
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.at(pivot, c), work.at(col, c));
        std::swap(inv.at(pivot, c), inv.at(col, c));
      }
    }
    // Normalize pivot row.
    const std::uint8_t scale = gf().inv(work.at(col, col));
    if (scale != 1) {
      for (std::size_t c = 0; c < n; ++c) {
        work.at(col, c) = gf().mul(work.at(col, c), scale);
        inv.at(col, c) = gf().mul(inv.at(col, c), scale);
      }
    }
    // Eliminate the column from every other row.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t factor = work.at(r, col);
      if (factor == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work.at(r, c) ^= gf().mul(factor, work.at(col, c));
        inv.at(r, c) ^= gf().mul(factor, inv.at(col, c));
      }
    }
  }
  return inv;
}

GfMatrix GfMatrix::select_rows(const std::vector<std::size_t>& idx) const {
  GfMatrix out(idx.size(), cols_);
  for (std::size_t r = 0; r < idx.size(); ++r) {
    assert(idx[r] < rows_);
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) = at(idx[r], c);
  }
  return out;
}

RowBasis::RowBasis(const GfMatrix& m)
    : m_(&m), cols_(m.cols()), work_(2 * m.cols() + 2, m.cols()) {
  pivots_.reserve(cols_);
  rows_.reserve(cols_);
}

void RowBasis::reduce(std::size_t r) const {
  const GF256& field = gf();
  std::uint8_t* v = &work_.at(2 * cols_, 0);
  std::uint8_t* combo = &work_.at(2 * cols_ + 1, 0);
  std::copy(m_->row(r), m_->row(r) + cols_, v);
  std::fill(combo, combo + cols_, std::uint8_t{0});
  // Echelon row i is zero at the pivots of rows 0..i-1, so one pass in row
  // order clears every pivot column of v.
  for (std::size_t i = 0; i < rank(); ++i) {
    const std::uint8_t* e = work_.row(i);
    if (v[pivots_[i]] == 0) continue;
    const std::uint8_t* f =
        field.mul_row(field.div(v[pivots_[i]], e[pivots_[i]]));
    for (std::size_t c = 0; c < cols_; ++c) v[c] ^= f[e[c]];
    const std::uint8_t* t = work_.row(cols_ + i);
    for (std::size_t j = 0; j <= i; ++j) combo[j] ^= f[t[j]];
  }
}

bool RowBasis::add(std::size_t r) {
  if (rank() == cols_) return false;
  reduce(r);
  const std::uint8_t* v = work_.row(2 * cols_);
  std::size_t pivot = 0;
  while (pivot < cols_ && v[pivot] == 0) ++pivot;
  if (pivot == cols_) return false;  // dependent on the rows already added
  // Over GF(2^8) subtraction is addition: the new echelon row is row r plus
  // the combination just eliminated from it.
  const std::size_t i = rank();
  std::copy(v, v + cols_, &work_.at(i, 0));
  std::copy(work_.row(2 * cols_ + 1), work_.row(2 * cols_ + 1) + cols_,
            &work_.at(cols_ + i, 0));
  work_.at(cols_ + i, i) ^= 1;
  pivots_.push_back(pivot);
  rows_.push_back(r);
  return true;
}

bool RowBasis::express(std::size_t r, std::uint8_t* coeffs) const {
  reduce(r);
  const std::uint8_t* v = work_.row(2 * cols_);
  if (std::any_of(v, v + cols_, [](std::uint8_t x) { return x != 0; })) {
    return false;
  }
  const std::uint8_t* combo = work_.row(2 * cols_ + 1);
  std::copy(combo, combo + rank(), coeffs);
  return true;
}

void GfMatrix::swap_cols(std::size_t a, std::size_t b) {
  if (a == b) return;
  for (std::size_t r = 0; r < rows_; ++r) std::swap(at(r, a), at(r, b));
}

void GfMatrix::scale_col(std::size_t c, std::uint8_t factor) {
  for (std::size_t r = 0; r < rows_; ++r) at(r, c) = gf().mul(at(r, c), factor);
}

void GfMatrix::add_scaled_col(std::size_t dst, std::size_t src,
                              std::uint8_t factor) {
  if (factor == 0) return;
  for (std::size_t r = 0; r < rows_; ++r) {
    at(r, dst) ^= gf().mul(factor, at(r, src));
  }
}

GfMatrix systematic_rs_generator(std::size_t k, std::size_t m) {
  GfMatrix v = GfMatrix::vandermonde(k + m, k);
  // Column-reduce the top k x k block to the identity. Column operations
  // right-multiply by an invertible matrix, which preserves the "any k rows
  // are independent" (MDS) property of the Vandermonde matrix.
  for (std::size_t i = 0; i < k; ++i) {
    if (v.at(i, i) == 0) {
      std::size_t c = i + 1;
      while (c < k && v.at(i, c) == 0) ++c;
      assert(c < k && "Vandermonde row cannot be all-zero in its top block");
      v.swap_cols(i, c);
    }
    const std::uint8_t scale = GF256::instance().inv(v.at(i, i));
    v.scale_col(i, scale);
    for (std::size_t c = 0; c < k; ++c) {
      if (c == i) continue;
      v.add_scaled_col(c, i, v.at(i, c));
    }
  }
  return v;
}

GfMatrix systematic_cauchy_generator(std::size_t k, std::size_t m) {
  GfMatrix out(k + m, k);
  for (std::size_t i = 0; i < k; ++i) out.at(i, i) = 1;
  const GfMatrix c = GfMatrix::cauchy(m, k);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t col = 0; col < k; ++col) {
      out.at(k + r, col) = c.at(r, col);
    }
  }
  return out;
}

GfMatrix raid6_generator(std::size_t k, std::size_t m) {
  assert(m <= 2 && "RAID-6 style codes support at most two parities");
  GfMatrix out(k + m, k);
  for (std::size_t i = 0; i < k; ++i) out.at(i, i) = 1;
  if (m >= 1) {
    for (std::size_t c = 0; c < k; ++c) out.at(k, c) = 1;  // P row
  }
  if (m >= 2) {
    for (std::size_t c = 0; c < k; ++c) {
      out.at(k + 1, c) =
          GF256::instance().pow(GF256::kGenerator, static_cast<unsigned>(c));
    }
  }
  return out;
}

}  // namespace hpres::ec
