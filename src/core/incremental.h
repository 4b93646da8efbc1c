#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "core/group.h"

namespace galaxy::core {

/// Incrementally maintained aggregate skyline over a dynamic record set.
///
/// Property 2 of the paper (stability to updates) argues that γ-dominance
/// degrades gracefully under record insertions/removals; this class is the
/// operational counterpart: it maintains the exact ordered domination
/// counts |S ≻ R| for every group pair and, per group, how many non-empty
/// groups currently γ-dominate it. Each group's records sit in one dense
/// row-major buffer (the layout of core::Group), so every count comes from
/// the block counting kernel (core/count_kernel.h):
///  - FromDataset seeds all counts with one two-way block count per
///    unordered group pair, O(Σ |g_i||g_j| · d);
///  - a record insert or remove counts the one record against each other
///    group's block, O(total_records · d), then re-tests the O(groups)
///    pairs that involve its group;
///  - Skyline() reads the per-group dominator counts, O(groups).
///
/// Records are MAX-oriented (negate MIN attributes before inserting), as
/// everywhere in core/.
class IncrementalAggregateSkyline {
 public:
  /// Creates an empty maintainer for `dims`-dimensional records with the
  /// given γ (in [0.5, 1]).
  IncrementalAggregateSkyline(size_t dims, double gamma = 0.5);

  /// Seeds a maintainer with the groups of `dataset` (ids and labels in
  /// dataset order) in one bulk pass of block counting. Equivalent to
  /// AddGroup + AddRecord for every record, without the per-record scans.
  static IncrementalAggregateSkyline FromDataset(const GroupedDataset& dataset,
                                                 double gamma);

  /// Registers a new (initially empty) group; returns its id. Empty groups
  /// do not participate in dominance until they receive a record.
  uint32_t AddGroup(std::string label);

  /// Inserts one record into a group. O(total_records * dims).
  Status AddRecord(uint32_t group, const Point& record);

  /// Removes one record equal to `record` from the group (the first
  /// match); NotFound if absent. O(total_records * dims).
  Status RemoveRecord(uint32_t group, const Point& record);

  /// Number of ordered record pairs (x in s, y in r) with x ≻ y.
  Result<uint64_t> DominationCount(uint32_t s, uint32_t r) const;

  /// p(S ≻ R); error if either group is empty or ids are invalid.
  Result<double> DominationProbability(uint32_t s, uint32_t r) const;

  /// True iff group `r` is currently γ-dominated by some non-empty group.
  Result<bool> IsDominated(uint32_t r) const;

  /// Ids of the non-empty groups not γ-dominated by any other non-empty
  /// group (Definition 2 over the current state), ascending.
  std::vector<uint32_t> Skyline() const;

  size_t num_groups() const { return groups_.size(); }
  size_t total_records() const { return total_records_; }
  size_t dims() const { return dims_; }
  double gamma() const { return gamma_; }
  const std::string& label(uint32_t group) const {
    return groups_[group].label;
  }
  size_t group_size(uint32_t group) const { return groups_[group].size; }

 private:
  struct GroupState {
    std::string label;
    std::vector<double> rows;  // row-major, dims_ values per record
    size_t size = 0;
    // Non-empty groups that currently γ-dominate this one.
    uint32_t dominators = 0;
  };

  bool ValidGroup(uint32_t g) const { return g < groups_.size(); }
  uint64_t& CountRef(uint32_t s, uint32_t r);
  uint64_t CountAt(uint32_t s, uint32_t r) const;
  /// Definition 3 on a count: p = count / total is 1 or exceeds γ; false
  /// when total is 0 (an empty group neither dominates nor is dominated).
  bool GammaDominates(uint64_t count, uint64_t total) const;
  /// Applies one record's insert (+1) or remove (-1) to the counts of
  /// every pair involving `group`, keeping the dominator counts current.
  void ApplyDelta(uint32_t group, const double* record, bool insert);

  size_t dims_;
  double gamma_;
  size_t total_records_ = 0;
  std::vector<GroupState> groups_;
  // counts_[s * groups_.size() + r] = |S ≻ R|; rebuilt (cheaply, counts
  // copied) when a group is added.
  std::vector<uint64_t> counts_;
};

}  // namespace galaxy::core
