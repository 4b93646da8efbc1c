#include "core/group.h"

#include <unordered_map>

#include "common/logging.h"

namespace galaxy::core {

Group::Group(uint32_t id, std::string label, std::vector<double> data,
             size_t dims)
    : id_(id),
      label_(std::move(label)),
      data_(std::move(data)),
      dims_(dims),
      size_(dims == 0 ? 0 : data_.size() / dims),
      mbb_(Box::Empty(dims)) {
  GALAXY_CHECK_GT(dims, 0u);
  GALAXY_CHECK_EQ(data_.size() % dims, 0u);
  for (size_t i = 0; i < size_; ++i) {
    mbb_.Expand(point(i));
  }
}

Result<GroupedDataset> GroupedDataset::FromTable(
    const Table& table, const std::vector<std::string>& group_columns,
    const std::vector<std::string>& value_columns,
    const skyline::PreferenceList& prefs) {
  if (group_columns.empty()) {
    return Status::InvalidArgument("at least one grouping column is required");
  }
  if (value_columns.empty()) {
    return Status::InvalidArgument("at least one value column is required");
  }
  skyline::PreferenceList effective_prefs =
      prefs.empty() ? skyline::AllMax(value_columns.size()) : prefs;
  if (effective_prefs.size() != value_columns.size()) {
    return Status::InvalidArgument(
        "preference list size does not match value column count");
  }

  std::vector<size_t> group_idx;
  for (const std::string& name : group_columns) {
    GALAXY_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    group_idx.push_back(idx);
  }
  std::vector<size_t> value_idx;
  for (const std::string& name : value_columns) {
    GALAXY_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    value_idx.push_back(idx);
  }

  // The value columns come out as contiguous double slices (zero-copy for
  // kDouble storage), checked for NULLs and non-numeric types up front.
  std::vector<std::string> value_names;
  value_names.reserve(value_idx.size());
  for (size_t idx : value_idx) {
    value_names.push_back(table.schema().column(idx).name);
  }
  GALAXY_ASSIGN_OR_RETURN(Table::NumericColumns values,
                          table.ExtractNumericColumns(value_names));

  // First pass: assign rows to groups by composite key, in order of first
  // occurrence.
  std::unordered_map<std::string, size_t> key_to_group;
  std::vector<std::string> labels;
  std::vector<std::vector<double>> buffers;
  const size_t d = value_columns.size();

  std::string key;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    // Map key: length-prefixed parts, so composite keys cannot collide
    // (("a|b", "c") vs ("a", "b|c")). The human-readable label joins the
    // parts with '|'.
    key.clear();
    std::string label;
    for (size_t k = 0; k < group_idx.size(); ++k) {
      std::string part = table.column(group_idx[k]).GetValue(r).ToString();
      key += std::to_string(part.size());
      key += ':';
      key += part;
      if (k > 0) label += "|";
      label += part;
    }
    auto [it, inserted] = key_to_group.try_emplace(key, labels.size());
    if (inserted) {
      labels.push_back(label);
      buffers.emplace_back();
    }
    std::vector<double>& buf = buffers[it->second];
    for (size_t k = 0; k < d; ++k) {
      double v = values.slices[k][r];
      if (effective_prefs[k] == skyline::Preference::kMin) v = -v;
      buf.push_back(v);
    }
  }

  std::vector<Group> groups;
  groups.reserve(labels.size());
  for (size_t g = 0; g < labels.size(); ++g) {
    groups.emplace_back(static_cast<uint32_t>(g), labels[g],
                        std::move(buffers[g]), d);
  }
  return GroupedDataset(d, std::move(groups));
}

GroupedDataset GroupedDataset::FromDenseBuffers(
    size_t dims, std::vector<std::vector<double>> buffers,
    std::vector<std::string> labels) {
  GALAXY_CHECK_GT(dims, 0u);
  GALAXY_CHECK(labels.empty() || labels.size() == buffers.size());
  std::vector<Group> out;
  out.reserve(buffers.size());
  for (size_t g = 0; g < buffers.size(); ++g) {
    std::string label =
        labels.empty() ? "g" + std::to_string(g) : std::move(labels[g]);
    out.emplace_back(static_cast<uint32_t>(g), std::move(label),
                     std::move(buffers[g]), dims);
  }
  return GroupedDataset(dims, std::move(out));
}

GroupedDataset GroupedDataset::FromPoints(
    const std::vector<std::vector<Point>>& groups,
    const std::vector<std::string>& labels) {
  GALAXY_CHECK(!groups.empty());
  GALAXY_CHECK(labels.empty() || labels.size() == groups.size());
  size_t dims = 0;
  for (const auto& g : groups) {
    if (!g.empty()) {
      dims = g.front().size();
      break;
    }
  }
  GALAXY_CHECK_GT(dims, 0u);
  std::vector<Group> out;
  out.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<double> buf;
    buf.reserve(groups[g].size() * dims);
    for (const Point& p : groups[g]) {
      GALAXY_CHECK_EQ(p.size(), dims);
      buf.insert(buf.end(), p.begin(), p.end());
    }
    std::string label = labels.empty() ? std::string("g") : labels[g];
    if (labels.empty()) label += std::to_string(g);
    out.emplace_back(static_cast<uint32_t>(g), std::move(label),
                     std::move(buf), dims);
  }
  return GroupedDataset(dims, std::move(out));
}

size_t GroupedDataset::total_records() const {
  size_t n = 0;
  for (const Group& g : groups_) n += g.size();
  return n;
}

Result<size_t> GroupedDataset::FindByLabel(const std::string& label) const {
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].label() == label) return i;
  }
  return Status::NotFound("no group labeled: " + label);
}

}  // namespace galaxy::core
