#include "skyline/skyline.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace galaxy::skyline {

std::vector<size_t> Compute(const std::vector<std::vector<double>>& points,
                            const PreferenceList& prefs) {
  for (const auto& p : points) {
    GALAXY_CHECK_EQ(p.size(), prefs.size());
  }
  // Process points by decreasing monotone score. A point can only be
  // dominated by an earlier one, so accepted points are final.
  std::vector<size_t> order(points.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> score(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    score[i] = MonotoneScore(points[i], prefs);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return score[a] > score[b];
  });
  std::vector<size_t> result;
  for (size_t idx : order) {
    bool dominated = false;
    for (size_t s : result) {
      if (Dominates(points[s], points[idx], prefs)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(idx);
  }
  std::sort(result.begin(), result.end());
  return result;
}

Result<std::vector<size_t>> ComputeOnTable(
    const Table& table, const std::vector<std::string>& columns,
    const PreferenceList& prefs) {
  if (columns.size() != prefs.size()) {
    return Status::InvalidArgument(
        "number of skyline columns does not match number of preferences");
  }
  GALAXY_ASSIGN_OR_RETURN(std::vector<std::vector<double>> points,
                          table.ExtractNumeric(columns));
  return Compute(points, prefs);
}

}  // namespace galaxy::skyline
