#include "core/incremental.h"

#include <algorithm>

#include "common/logging.h"
#include "core/count_kernel.h"

namespace galaxy::core {

IncrementalAggregateSkyline::IncrementalAggregateSkyline(size_t dims,
                                                         double gamma)
    : dims_(dims), gamma_(gamma) {
  GALAXY_CHECK_GT(dims, 0u);
  GALAXY_CHECK_GE(gamma, 0.5);
  GALAXY_CHECK_LE(gamma, 1.0);
}

IncrementalAggregateSkyline IncrementalAggregateSkyline::FromDataset(
    const GroupedDataset& dataset, double gamma) {
  IncrementalAggregateSkyline view(dataset.dims(), gamma);
  const size_t n = dataset.num_groups();
  view.groups_.reserve(n);
  for (const Group& group : dataset.groups()) {
    view.groups_.push_back({group.label(), group.data(), group.size(), 0});
    view.total_records_ += group.size();
  }
  view.counts_.assign(n * n, 0);
  for (uint32_t s = 0; s < n; ++s) {
    const GroupState& gs = view.groups_[s];
    // One-time seeding before the view is published: O(Σ |g_i||g_j| · d),
    // bounded by the seeded table, and the counts must be complete before
    // any reader sees them.
    // galaxy-analyze: allow(budget-reach)
    for (uint32_t r = s + 1; r < n; ++r) {
      const GroupState& gr = view.groups_[r];
      kernel::KernelCounts c = kernel::CountBlock(
          gs.rows.data(), gs.size, gr.rows.data(), gr.size, view.dims_);
      view.CountRef(s, r) = c.n12;
      view.CountRef(r, s) = c.n21;
      const uint64_t total = static_cast<uint64_t>(gs.size) * gr.size;
      if (view.GammaDominates(c.n12, total)) ++view.groups_[r].dominators;
      if (view.GammaDominates(c.n21, total)) ++view.groups_[s].dominators;
    }
  }
  return view;
}

uint32_t IncrementalAggregateSkyline::AddGroup(std::string label) {
  size_t old_n = groups_.size();
  size_t new_n = old_n + 1;
  // Re-lay out the count matrix with the extra row/column (all zeros).
  std::vector<uint64_t> grown(new_n * new_n, 0);
  for (size_t s = 0; s < old_n; ++s) {
    // The re-layout must run to completion or the count matrix is torn;
    // it is O(groups²) state maintenance outside the query budget plane:
    // the server drains deltas under its view mutex, and each connection
    // has at most one /update in flight.
    // galaxy-analyze: allow(budget-reach)
    for (size_t r = 0; r < old_n; ++r) {
      grown[s * new_n + r] = counts_[s * old_n + r];
    }
  }
  counts_ = std::move(grown);
  groups_.push_back({std::move(label), {}, 0, 0});
  return static_cast<uint32_t>(old_n);
}

uint64_t& IncrementalAggregateSkyline::CountRef(uint32_t s, uint32_t r) {
  return counts_[static_cast<size_t>(s) * groups_.size() + r];
}

uint64_t IncrementalAggregateSkyline::CountAt(uint32_t s, uint32_t r) const {
  return counts_[static_cast<size_t>(s) * groups_.size() + r];
}

bool IncrementalAggregateSkyline::GammaDominates(uint64_t count,
                                                 uint64_t total) const {
  if (total == 0) return false;
  return count == total ||
         static_cast<double>(count) > gamma_ * static_cast<double>(total);
}

namespace {

void AdjustDominators(uint32_t* dominators, bool before, bool after) {
  if (after && !before) ++*dominators;
  if (before && !after) --*dominators;
}

}  // namespace

void IncrementalAggregateSkyline::ApplyDelta(uint32_t group,
                                             const double* record,
                                             bool insert) {
  GroupState& g = groups_[group];
  const uint64_t old_size = g.size;
  const uint64_t new_size = insert ? old_size + 1 : old_size - 1;
  // Count maintenance must apply atomically: aborting mid-scan would leave
  // the count matrix inconsistent with the stored records. One pass is
  // O(total_records · d), outside the query budget plane: the server
  // drains deltas under its view mutex, and each connection has at most
  // one /update in flight.
  for (uint32_t h = 0; h < groups_.size(); ++h) {
    GroupState& other = groups_[h];
    if (h == group || other.size == 0) continue;
    uint64_t& count_gh = CountRef(group, h);
    uint64_t& count_hg = CountRef(h, group);
    const bool g_dominated_h = GammaDominates(count_gh, old_size * other.size);
    const bool h_dominated_g = GammaDominates(count_hg, old_size * other.size);
    kernel::KernelCounts c = kernel::CountBlock(
        record, 1, other.rows.data(), other.size, dims_);
    if (insert) {
      count_gh += c.n12;
      count_hg += c.n21;
    } else {
      count_gh -= c.n12;
      count_hg -= c.n21;
    }
    AdjustDominators(&other.dominators, g_dominated_h,
                     GammaDominates(count_gh, new_size * other.size));
    AdjustDominators(&g.dominators, h_dominated_g,
                     GammaDominates(count_hg, new_size * other.size));
  }
  g.size = new_size;
}

Status IncrementalAggregateSkyline::AddRecord(uint32_t group,
                                              const Point& record) {
  if (!ValidGroup(group)) {
    return Status::InvalidArgument("unknown group id");
  }
  if (record.size() != dims_) {
    return Status::InvalidArgument("record dimensionality mismatch");
  }
  ApplyDelta(group, record.data(), /*insert=*/true);
  std::vector<double>& rows = groups_[group].rows;
  rows.insert(rows.end(), record.begin(), record.end());
  ++total_records_;
  return Status::OK();
}

Status IncrementalAggregateSkyline::RemoveRecord(uint32_t group,
                                                 const Point& record) {
  if (!ValidGroup(group)) {
    return Status::InvalidArgument("unknown group id");
  }
  GroupState& g = groups_[group];
  size_t index = g.size;
  if (record.size() == dims_) {
    for (size_t i = 0; i < g.size; ++i) {
      const double* row = g.rows.data() + i * dims_;
      if (std::equal(record.begin(), record.end(), row)) {
        index = i;
        break;
      }
    }
  }
  if (index == g.size) {
    return Status::NotFound("record not present in group");
  }
  ApplyDelta(group, record.data(), /*insert=*/false);
  // Swap-erase: the last row takes the removed row's slot.
  std::copy_n(g.rows.end() - static_cast<ptrdiff_t>(dims_), dims_,
              g.rows.begin() + static_cast<ptrdiff_t>(index * dims_));
  g.rows.resize(g.rows.size() - dims_);
  --total_records_;
  return Status::OK();
}

Result<uint64_t> IncrementalAggregateSkyline::DominationCount(
    uint32_t s, uint32_t r) const {
  if (!ValidGroup(s) || !ValidGroup(r) || s == r) {
    return Status::InvalidArgument("invalid group pair");
  }
  return CountAt(s, r);
}

Result<double> IncrementalAggregateSkyline::DominationProbability(
    uint32_t s, uint32_t r) const {
  GALAXY_ASSIGN_OR_RETURN(uint64_t count, DominationCount(s, r));
  uint64_t total = static_cast<uint64_t>(groups_[s].size) * groups_[r].size;
  if (total == 0) {
    return Status::InvalidArgument("both groups must be non-empty");
  }
  return static_cast<double>(count) / static_cast<double>(total);
}

Result<bool> IncrementalAggregateSkyline::IsDominated(uint32_t r) const {
  if (!ValidGroup(r)) return Status::InvalidArgument("unknown group id");
  if (groups_[r].size == 0) {
    return Status::InvalidArgument("group is empty");
  }
  return groups_[r].dominators > 0;
}

std::vector<uint32_t> IncrementalAggregateSkyline::Skyline() const {
  std::vector<uint32_t> out;
  for (uint32_t r = 0; r < groups_.size(); ++r) {
    if (groups_[r].size > 0 && groups_[r].dominators == 0) out.push_back(r);
  }
  return out;
}

}  // namespace galaxy::core
