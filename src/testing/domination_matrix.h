#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/exec_context.h"
#include "core/group.h"

namespace galaxy::core {

/// The Domination Matrix framework from the proof of Proposition 5: for
/// groups R and S, entry (i, j) is 1 iff record r_i dominates record s_j.
/// pos() — the fraction of non-zero entries — equals p(R ≻ S), and the
/// Boolean matrix product of the R-S and S-T matrices is a valid domination
/// matrix witness for R-T (record dominance is transitive). Test-only:
/// the Figure 6 and 7 checks and the theory tests build it; no served or
/// library path does.
class DominationMatrix {
 public:
  /// An `rows` x `cols` zero matrix.
  DominationMatrix(size_t rows, size_t cols);

  /// Builds the domination matrix of two groups (MAX-oriented records).
  static DominationMatrix Build(const Group& r, const Group& s);

  /// Like Build, but first charges the |r| x |s| cells against the
  /// resident-memory budget of `exec` (which may be null = unbounded) and
  /// fails with kResourceExhausted instead of allocating past the cap. The
  /// reservation is held for the lifetime of the returned matrix.
  static Result<DominationMatrix> TryBuild(const Group& r, const Group& s,
                                           ExecutionContext* exec);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  bool at(size_t i, size_t j) const { return cells_[i * cols_ + j] != 0; }
  void set(size_t i, size_t j, bool value) {
    cells_[i * cols_ + j] = value ? 1 : 0;
  }

  /// Number of non-zero entries.
  uint64_t CountPositive() const;

  /// Fraction of non-zero entries: p(R ≻ S).
  double pos() const;

  /// Boolean matrix product: (A * B)(i, k) = OR_j A(i, j) AND B(j, k).
  /// Requires cols() == other.rows(). If A is the R-S domination matrix and
  /// B the S-T one, every non-zero entry of the product certifies r_i ≻ t_k
  /// by transitivity, so pos(product) is a lower bound for p(R ≻ T).
  DominationMatrix BooleanProduct(const DominationMatrix& other) const;

  std::string ToString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<uint8_t> cells_;
  /// Byte reservation backing TryBuild-created matrices (shared so the
  /// matrix stays copyable; released when the last copy dies).
  std::shared_ptr<ScopedReservation> reservation_;
};

}  // namespace galaxy::core

