#pragma once

#include <vector>

#include "common/status.h"
#include "relation/table.h"
#include "skyline/dominance.h"

namespace galaxy::skyline {

/// Computes the skyline of `points` with Sort-Filter-Skyline (Chomicki et
/// al. 2003): the indices, ascending, of points not dominated by any other
/// point under `prefs`. Points are presorted by a monotone score, so every
/// accepted point is final. Duplicate points are all retained (none
/// dominates the other). Points must share one dimension, equal to
/// prefs.size().
std::vector<size_t> Compute(const std::vector<std::vector<double>>& points,
                            const PreferenceList& prefs);

/// Convenience wrapper: extracts `columns` from `table` (all treated as
/// numeric), computes the skyline with the given per-column preferences, and
/// returns the qualifying row indexes in ascending order.
Result<std::vector<size_t>> ComputeOnTable(
    const Table& table, const std::vector<std::string>& columns,
    const PreferenceList& prefs);

}  // namespace galaxy::skyline
