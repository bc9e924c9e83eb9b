// Dense matrices over GF(2^8): the construction and inversion machinery
// behind Reed-Solomon generator matrices and erasure decoding.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ec/gf256.h"

namespace hpres::ec {

/// Row-major dense matrix over GF(2^8).
class GfMatrix {
 public:
  GfMatrix() = default;
  GfMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] std::uint8_t at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  std::uint8_t& at(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (row-major contiguous).
  [[nodiscard]] const std::uint8_t* row(std::size_t r) const noexcept {
    return &data_[r * cols_];
  }

  [[nodiscard]] bool operator==(const GfMatrix&) const = default;

  /// n x n identity.
  static GfMatrix identity(std::size_t n);

  /// rows x cols Vandermonde: at(r, c) = (r+1)^c... see .cpp for the exact
  /// element choice (rows indexed by distinct field elements).
  static GfMatrix vandermonde(std::size_t rows, std::size_t cols);

  /// rows x cols Cauchy: at(r, c) = 1 / (x_r ^ y_c) with
  /// x_r = r, y_c = rows + c (all distinct, x_r ^ y_c != 0).
  static GfMatrix cauchy(std::size_t rows, std::size_t cols);

  /// Matrix product (this * other). Dimension mismatch is a precondition
  /// violation (assert).
  [[nodiscard]] GfMatrix multiply(const GfMatrix& other) const;

  /// Gauss-Jordan inverse. Returns kInvalidArgument for non-square input
  /// and kInternal for a singular matrix.
  [[nodiscard]] Result<GfMatrix> inverted() const;

  /// Returns the submatrix formed by the given row indices (in order).
  [[nodiscard]] GfMatrix select_rows(const std::vector<std::size_t>& idx) const;

  /// In-place elementary column operations used to systematize a
  /// Vandermonde matrix (see systematic_rs_generator).
  void swap_cols(std::size_t a, std::size_t b);
  void scale_col(std::size_t c, std::uint8_t factor);
  /// col[dst] ^= factor * col[src]
  void add_scaled_col(std::size_t dst, std::size_t src, std::uint8_t factor);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Incremental row reduction over the rows of one matrix (a codec's
/// generator): rows are added one at a time and kept only while they are
/// independent of the rows already added, and any row in their span can be
/// expressed as a combination of them. The one rank routine behind read-set
/// selection, decoding and LRC construction.
class RowBasis {
 public:
  /// The matrix must outlive the basis.
  explicit RowBasis(const GfMatrix& m);

  /// Adds row `r` when it is independent of the rows added so far; returns
  /// whether it was added.
  bool add(std::size_t r);

  [[nodiscard]] std::size_t rank() const noexcept { return rows_.size(); }
  /// The rows added so far, in the order they were added.
  [[nodiscard]] const std::vector<std::size_t>& rows() const noexcept {
    return rows_;
  }

  /// Writes coefficients c, one per added row, such that
  /// row r == sum_i c[i] * rows()[i]; false when row r lies outside their
  /// span. `coeffs` must hold rank() entries.
  [[nodiscard]] bool express(std::size_t r, std::uint8_t* coeffs) const;

 private:
  /// Loads row r into the scratch row and eliminates every pivot column
  /// from it, accumulating the eliminated combination of added rows into
  /// the scratch combination.
  void reduce(std::size_t r) const;

  const GfMatrix* m_;
  std::size_t cols_;
  // Rows [0, cols): added row i reduced against rows 0..i-1 (echelon).
  // Rows [cols, 2 cols): echelon row i as a combination of the added rows.
  // Row 2 cols: scratch row; row 2 cols + 1: its scratch combination.
  mutable GfMatrix work_;
  std::vector<std::size_t> pivots_;  // first nonzero column per echelon row
  std::vector<std::size_t> rows_;
};

/// Builds the systematic (k+m) x k Reed-Solomon generator matrix from a
/// Vandermonde matrix: elementary column operations transform the top k x k
/// block into the identity while preserving the MDS property (this is the
/// classic Jerasure/ISA-L construction). Row i < k emits data chunk i
/// verbatim; rows k..k+m-1 emit parity.
GfMatrix systematic_rs_generator(std::size_t k, std::size_t m);

/// Builds the systematic Cauchy generator: identity stacked on an m x k
/// Cauchy block. Any k rows are linearly independent because every square
/// submatrix of a Cauchy matrix is nonsingular.
GfMatrix systematic_cauchy_generator(std::size_t k, std::size_t m);

/// Builds the classic RAID-6 generator for m <= 2: parity row P of all ones
/// and row Q of generator powers (1, g, g^2, ...).
GfMatrix raid6_generator(std::size_t k, std::size_t m);

}  // namespace hpres::ec
