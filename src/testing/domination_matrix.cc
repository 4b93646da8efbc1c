#include "testing/domination_matrix.h"

#include <utility>

#include "common/logging.h"

namespace galaxy::core {

DominationMatrix::DominationMatrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols, 0) {}

DominationMatrix DominationMatrix::Build(const Group& r, const Group& s) {
  GALAXY_CHECK_EQ(r.dims(), s.dims());
  DominationMatrix m(r.size(), s.size());
  for (size_t i = 0; i < r.size(); ++i) {
    auto ri = r.point(i);
    for (size_t j = 0; j < s.size(); ++j) {
      if (skyline::Dominates(ri, s.point(j))) m.set(i, j, true);
    }
  }
  return m;
}

Result<DominationMatrix> DominationMatrix::TryBuild(const Group& r,
                                                    const Group& s,
                                                    ExecutionContext* exec) {
  if (r.dims() != s.dims()) {
    return Status::InvalidArgument("domination matrix of mismatched dims");
  }
  auto reservation = std::make_shared<ScopedReservation>();
  const uint64_t bytes = static_cast<uint64_t>(r.size()) * s.size();
  GALAXY_RETURN_IF_ERROR(reservation->Reserve(exec, bytes));
  DominationMatrix m = Build(r, s);
  m.reservation_ = std::move(reservation);
  return m;
}

uint64_t DominationMatrix::CountPositive() const {
  uint64_t count = 0;
  for (uint8_t c : cells_) count += c;
  return count;
}

double DominationMatrix::pos() const {
  if (cells_.empty()) return 0.0;
  return static_cast<double>(CountPositive()) /
         static_cast<double>(cells_.size());
}

DominationMatrix DominationMatrix::BooleanProduct(
    const DominationMatrix& other) const {
  GALAXY_CHECK_EQ(cols_, other.rows_);
  DominationMatrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      if (!at(i, j)) continue;
      for (size_t k = 0; k < other.cols_; ++k) {
        if (other.at(j, k)) out.set(i, k, true);
      }
    }
  }
  return out;
}

std::string DominationMatrix::ToString() const {
  std::string out;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out += at(i, j) ? '1' : '0';
      out += j + 1 < cols_ ? ' ' : '\n';
    }
  }
  return out;
}

}  // namespace galaxy::core
