#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "relation/table.h"
#include "skyline/dominance.h"

namespace galaxy::core {

/// A group of records ("star cluster"): the unit the aggregate skyline
/// ranks. Records are stored as a dense row-major buffer of doubles,
/// oriented so that larger is always better (MIN attributes are negated at
/// construction). The group's minimum bounding box (MBB) is precomputed —
/// it drives the sorted order (Algorithm 4), the window queries
/// (Algorithm 5) and the internal bounding-box optimization (Figure 9).
class Group {
 public:
  /// Builds a group; `data` is row-major with `size() == n * dims`. Empty
  /// groups (no records) are allowed: they neither dominate nor are
  /// dominated, and their MBB is the empty box (corners at ±infinity).
  Group(uint32_t id, std::string label, std::vector<double> data, size_t dims);

  uint32_t id() const { return id_; }
  const std::string& label() const { return label_; }
  size_t dims() const { return dims_; }
  size_t size() const { return size_; }

  /// The i-th record of the group.
  std::span<const double> point(size_t i) const {
    return {data_.data() + i * dims_, dims_};
  }

  /// Raw row-major record buffer.
  const std::vector<double>& data() const { return data_; }

  /// Minimum bounding box of the group's records.
  const Box& mbb() const { return mbb_; }

 private:
  uint32_t id_;
  std::string label_;
  std::vector<double> data_;
  size_t dims_;
  size_t size_;
  Box mbb_;
};

/// A partition of a record universe into groups — the input of the
/// aggregate skyline operator (the paper's U_g).
class GroupedDataset {
 public:
  GroupedDataset(size_t dims, std::vector<Group> groups)
      : dims_(dims), groups_(std::move(groups)) {}

  /// Groups the rows of `table` by the (composite) key formed by
  /// `group_columns` and projects `value_columns` (numeric) as the skyline
  /// attributes, applying `prefs` (empty = all MAX). Group labels are the
  /// key values joined with '|'. Groups appear in order of first occurrence.
  static Result<GroupedDataset> FromTable(
      const Table& table, const std::vector<std::string>& group_columns,
      const std::vector<std::string>& value_columns,
      const skyline::PreferenceList& prefs = {});

  /// Builds a dataset from explicit per-group point lists; labels default to
  /// "g<id>". Every point must have the same dimension. Individual groups
  /// may be empty, but at least one group must have a record (to fix the
  /// dimensionality).
  static GroupedDataset FromPoints(
      const std::vector<std::vector<Point>>& groups,
      const std::vector<std::string>& labels = {});

  /// Builds a dataset from per-group dense row-major buffers
  /// (`buffers[g].size() == n_g * dims`), already MAX-oriented. Labels
  /// default to "g<id>". This is the zero-densify handoff used by the
  /// batch SQL executor: column data gathered once, no Point boxing.
  static GroupedDataset FromDenseBuffers(
      size_t dims, std::vector<std::vector<double>> buffers,
      std::vector<std::string> labels = {});

  size_t dims() const { return dims_; }
  size_t num_groups() const { return groups_.size(); }
  const Group& group(size_t i) const { return groups_[i]; }
  const std::vector<Group>& groups() const { return groups_; }

  /// Total number of records across all groups.
  size_t total_records() const;

  /// Index of the group with the given label, or an error.
  Result<size_t> FindByLabel(const std::string& label) const;

 private:
  size_t dims_;
  std::vector<Group> groups_;
};

}  // namespace galaxy::core

