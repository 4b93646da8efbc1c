#include <cstddef>
#include <limits>

#include "core/algo_context.h"
#include "core/exec_context.h"
#include "spatial/rtree.h"

namespace galaxy::core::internal {

namespace {
// Fan-out of the R-tree over group MBB max corners.
constexpr size_t kRTreeFanout = 16;
}  // namespace

// Algorithm 5 ("IN"; with the MBB internal approximation enabled it is
// "LO"): groups are probed in priority order, and for each probe g1 a
// window query on an R-tree of group MBB max-corners returns exactly the
// groups that could γ-dominate g1 — those whose max corner lies in the
// region weakly dominating g1's min corner (Figure 9(a)). Only those
// candidates are compared. Classification marks both sides, so dominances
// discovered "by accident" (g1 beating a candidate) are kept as well. A
// probe stops once g1 is strongly dominated: its marks are then final, and
// every group g1 could dominate still finds g1 in its own window. A pair is
// not re-classified from the other endpoint when that endpoint's probe ran
// to completion and g1 lies in its window (DESIGN.md §3b).
void RunIndexed(AlgoContext& ctx) {
  const GroupedDataset& dataset = ctx.dataset();
  const size_t dims = dataset.dims();
  const uint32_t n = static_cast<uint32_t>(dataset.num_groups());

  // Charge the R-tree against the resident-memory budget before building
  // it: per entry one d-dimensional corner plus id, and roughly one
  // interior box per fan-out split. On budget exhaustion the context trips
  // (kResourceExhausted) and the run unwinds before allocating.
  ScopedReservation tree_reservation;
  if (ctx.options().exec != nullptr) {
    const uint64_t per_entry = dims * sizeof(double) + sizeof(uint32_t);
    const uint64_t per_node = 2 * dims * sizeof(double) + 64;
    const uint64_t estimate =
        n * per_entry + (2 * uint64_t{n} / kRTreeFanout + 1) * per_node;
    if (!tree_reservation.Reserve(ctx.options().exec, estimate).ok()) {
      return;
    }
  }

  spatial::RTree tree(dims, kRTreeFanout);
  {
    std::vector<Point> corners;
    std::vector<uint32_t> ids;
    corners.reserve(n);
    ids.reserve(n);
    for (uint32_t g = 0; g < n; ++g) {
      corners.push_back(dataset.group(g).mbb().max);
      ids.push_back(g);
    }
    tree.BulkLoad(corners, ids);
  }

  std::vector<uint32_t> order =
      OrderGroups(dataset, ctx.options().ordering);
  std::vector<uint8_t> probed(n, 0);  // probe ran without stopping early
  std::vector<uint32_t> candidates;

  for (uint32_t a = 0; a < n; ++a) {
    uint32_t i = order[a];
    if (ctx.strongly_dominated(i)) continue;
    if (ctx.interrupted()) return;

    // All groups whose MBB max corner weakly dominates g1's min corner are
    // the only possible γ-dominators of g1.
    Box window(dataset.group(i).mbb().min,
               Point(dims, std::numeric_limits<double>::infinity()));
    candidates.clear();
    tree.WindowQuery(window, &candidates);
    if (ctx.stats() != nullptr) {
      ctx.stats()->window_candidates += candidates.size();
    }

    const Point& i_max = dataset.group(i).mbb().max;
    probed[i] = 1;
    for (uint32_t j : candidates) {
      if (j == i) continue;
      if (ctx.Skippable(j)) {
        if (ctx.stats() != nullptr) ++ctx.stats()->pairs_skipped_strong;
        continue;
      }
      if (probed[j] != 0) {
        const Point& j_min = dataset.group(j).mbb().min;
        size_t d = 0;
        while (d < dims && i_max[d] >= j_min[d]) ++d;
        if (d == dims) {  // j's finished probe already classified (j, i)
          if (ctx.stats() != nullptr) ++ctx.stats()->pairs_skipped_dedup;
          continue;
        }
      }
      if (ctx.interrupted()) return;
      ctx.Compare(i, j);
      if (ctx.strongly_dominated(i)) {
        probed[i] = 0;  // the probe is out; stop searching for dominators
        break;
      }
    }
  }
}

}  // namespace galaxy::core::internal
