#include "core/aggregate_skyline.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/algo_context.h"
#include "core/gamma.h"
#include "skyline/skyline.h"

namespace galaxy::core {

const char* AlgorithmToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return "BF";
    case Algorithm::kNestedLoop:
      return "NL";
    case Algorithm::kTransitive:
      return "TR";
    case Algorithm::kSorted:
      return "SI";
    case Algorithm::kIndexed:
      return "IN";
    case Algorithm::kIndexedBbox:
      return "LO";
    case Algorithm::kAuto:
      return "AUTO";
  }
  return "?";
}

const char* GroupOrderingToString(GroupOrdering ordering) {
  switch (ordering) {
    case GroupOrdering::kCornerDistance:
      return "corner-distance";
    case GroupOrdering::kSmallestFirst:
      return "smallest-first";
    case GroupOrdering::kSmallestFirstThenCorner:
      return "smallest-first-then-corner";
  }
  return "?";
}

std::string AggregateSkylineStats::ToString() const {
  std::string out;
  out += "group_pairs=" + std::to_string(group_pairs_classified);
  out += " record_cmps=" + std::to_string(record_comparisons);
  out += " skipped_strong=" + std::to_string(pairs_skipped_strong);
  out += " skipped_dedup=" + std::to_string(pairs_skipped_dedup);
  out += " window_candidates=" + std::to_string(window_candidates);
  out += " mbb_shortcuts=" + std::to_string(mbb_shortcuts);
  out += " stopped_early=" + std::to_string(stopped_early);
  out += " records_preclassified=" + std::to_string(records_preclassified);
  out += " wall_s=" + std::to_string(wall_seconds);
  return out;
}

bool AggregateSkylineResult::Contains(uint32_t id) const {
  return std::binary_search(skyline.begin(), skyline.end(), id);
}

std::vector<std::string> AggregateSkylineResult::Labels(
    const GroupedDataset& dataset) const {
  std::vector<std::string> out;
  out.reserve(skyline.size());
  for (uint32_t id : skyline) {
    out.push_back(dataset.group(id).label());
  }
  return out;
}

namespace {

// Resolves kAuto to the configuration GROUP BY … SKYLINE OF serves:
// safe-mode IN. The R-tree limits each group to the groups that could
// γ-dominate it, and without candidate skipping the answer stays exact
// (DESIGN.md §3b). Every other option passes through.
AggregateSkylineOptions ResolveAlgorithm(
    const AggregateSkylineOptions& options) {
  AggregateSkylineOptions effective = options;
  if (options.algorithm == Algorithm::kAuto) {
    effective.algorithm = Algorithm::kIndexed;
    effective.prune_strongly_dominated = false;
  }
  return effective;
}

// One dispatch of an already-resolved algorithm; honors effective.exec if
// set (the run unwinds once it stops, leaving sound partial marks).
AggregateSkylineResult RunResolved(const GroupedDataset& dataset,
                                   const AggregateSkylineOptions& effective) {
  WallTimer timer;
  AggregateSkylineResult result;
  result.algorithm_used = effective.algorithm;
  internal::AlgoContext ctx(dataset, effective, &result.stats);

  switch (effective.algorithm) {
    case Algorithm::kBruteForce:
      internal::RunBruteForce(ctx);
      break;
    case Algorithm::kNestedLoop:
      internal::RunNestedLoop(ctx);
      break;
    case Algorithm::kTransitive:
      internal::RunTransitive(ctx);
      break;
    case Algorithm::kSorted:
      internal::RunSorted(ctx);
      break;
    case Algorithm::kIndexed:
    case Algorithm::kIndexedBbox:
      internal::RunIndexed(ctx);
      break;
    case Algorithm::kAuto:
      GALAXY_CHECK(false) << "resolved before dispatch";
      break;
  }

  result.skyline = ctx.Skyline();
  result.dominated = ctx.dominated_flags();
  result.strongly_dominated = ctx.strong_flags();
  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

// Degrades an interrupted run to a sound superset. Its partial marks are
// each a proven γ-domination. On top of them, a group S is dropped when
// some non-empty group R has min_R dominating max_S (the Figure 9(b) corner
// test): then every r beats every s, p(R≻S) = 1, and Definition 3 counts
// that as domination at every γ, γ̄ included. A dominated min corner is
// itself dominated by a skyline min corner, so testing each max corner
// against the SFS skyline of the min corners finds every drop, in
// O(n log n + n·s·d) time and O(n·d) memory (s the skyline size) with no
// per-pair state. Empty groups neither drop nor are dropped.
void DropCornerDominated(const GroupedDataset& dataset,
                         AggregateSkylineResult* result) {
  const uint32_t n = static_cast<uint32_t>(dataset.num_groups());
  std::vector<std::vector<double>> min_corners;
  for (uint32_t g = 0; g < n; ++g) {
    if (dataset.group(g).size() > 0) {
      min_corners.push_back(dataset.group(g).mbb().min);
    }
  }
  const std::vector<size_t> frontier =
      skyline::Compute(min_corners, skyline::AllMax(dataset.dims()));

  result->skyline.clear();
  for (uint32_t g = 0; g < n; ++g) {
    const Group& group = dataset.group(g);
    if (result->dominated[g] == 0 && group.size() > 0) {
      // Runs once, after the trip: n·s corner tests, no per-pair state.
      // galaxy-analyze: allow(budget-reach)
      for (size_t i : frontier) {
        if (skyline::Dominates(min_corners[i], group.mbb().max)) {
          result->dominated[g] = 1;
          result->strongly_dominated[g] = 1;
          break;
        }
      }
    }
    if (result->dominated[g] == 0) result->skyline.push_back(g);
  }
  result->quality = ResultQuality::kApproximateSuperset;
}

}  // namespace

AggregateSkylineResult ComputeAggregateSkyline(
    const GroupedDataset& dataset, const AggregateSkylineOptions& options) {
  GALAXY_CHECK(options.exec == nullptr)
      << "ComputeAggregateSkyline cannot report interruptions; use "
         "ComputeAggregateSkylineBounded with an ExecutionContext";
  return RunResolved(dataset, ResolveAlgorithm(options));
}

Result<AggregateSkylineResult> ComputeAggregateSkylineBounded(
    const GroupedDataset& dataset, const AggregateSkylineOptions& options) {
  WallTimer timer;
  AggregateSkylineResult result =
      RunResolved(dataset, ResolveAlgorithm(options));
  if (options.exec == nullptr || !options.exec->stopped()) {
    return result;
  }
  if (!options.allow_approximate || !options.exec->degradable_trip()) {
    return options.exec->status();
  }
  DropCornerDominated(dataset, &result);
  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<RankedGroup> RankByGamma(const GroupedDataset& dataset) {
  return std::move(RankByGammaBounded(dataset, nullptr)).value();
}

Result<std::vector<RankedGroup>> RankByGammaBounded(
    const GroupedDataset& dataset, ExecutionContext* exec) {
  const size_t n = dataset.num_groups();
  std::vector<RankedGroup> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RankedGroup rg;
    rg.id = i;
    rg.label = dataset.group(i).label();
    rg.min_gamma = 0.5;
    rg.always_dominated = false;
    rg.strongest_dominator = i;
    rg.strongest_probability = 0.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const uint64_t pair_cost = std::max<uint64_t>(
          1, static_cast<uint64_t>(dataset.group(j).size()) *
                 dataset.group(i).size());
      if (exec != nullptr && !exec->Charge(pair_cost)) {
        return exec->status();
      }
      double p = DominationProbability(dataset.group(j), dataset.group(i));
      if (p > rg.strongest_probability) {
        rg.strongest_probability = p;
        rg.strongest_dominator = j;
      }
      if (p == 1.0) {
        rg.always_dominated = true;
        break;
      }
      rg.min_gamma = std::max(rg.min_gamma, p);
    }
    out.push_back(std::move(rg));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedGroup& a, const RankedGroup& b) {
                     if (a.always_dominated != b.always_dominated) {
                       return !a.always_dominated;
                     }
                     return a.min_gamma < b.min_gamma;
                   });
  return out;
}

}  // namespace galaxy::core
