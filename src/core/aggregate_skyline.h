#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/exec_context.h"
#include "core/group.h"
#include "core/options.h"

namespace galaxy::core {

/// The output of an aggregate-skyline computation.
struct AggregateSkylineResult {
  /// Ids of the groups in the skyline, ascending.
  std::vector<uint32_t> skyline;
  /// Per group id: γ-dominated by some group (as established by the chosen
  /// algorithm; see DESIGN.md on the weak-transitivity gap of TR/SI/IN/LO).
  std::vector<uint8_t> dominated;
  /// Per group id: γ̄-dominated (strong domination).
  std::vector<uint8_t> strongly_dominated;
  /// Work counters for the run.
  AggregateSkylineStats stats;
  /// The concrete algorithm that ran (kIndexed for kAuto).
  Algorithm algorithm_used = Algorithm::kBruteForce;
  /// Whether the skyline is exact or a sound over-approximation (set to
  /// kApproximateSuperset only by ComputeAggregateSkylineBounded after a
  /// graceful degradation; see core/exec_context.h).
  ResultQuality quality = ResultQuality::kExact;

  /// True if the group id is in the skyline.
  bool Contains(uint32_t id) const;

  /// Labels of the skyline groups, in skyline order.
  std::vector<std::string> Labels(const GroupedDataset& dataset) const;
};

/// Computes the aggregate skyline of Definition 2: the groups of `dataset`
/// not γ-dominated by any other group, using the algorithm and tuning in
/// `options`. Thread-compatible: concurrent calls on the same dataset are
/// safe.
AggregateSkylineResult ComputeAggregateSkyline(
    const GroupedDataset& dataset, const AggregateSkylineOptions& options = {});

/// The control-plane-aware entry point: like ComputeAggregateSkyline, but
/// honors `options.exec` (deadline, cancellation, comparison and memory
/// budgets; core/exec_context.h). When the context stops the run:
///  - with `options.allow_approximate` set and a degradable trip reason
///    (cancel / deadline / comparison budget), the partial — always sound —
///    dominance marks are merged with a bounded anytime salvage pass and
///    the result is returned tagged ResultQuality::kApproximateSuperset
///    (kExact if the salvage pass happened to finish the job);
///  - otherwise the trip reason propagates as an error Status
///    (kCancelled / kDeadlineExceeded / kResourceExhausted) and no result
///    is returned. Memory-budget trips always take this branch.
/// With a null `options.exec` this is exactly ComputeAggregateSkyline.
Result<AggregateSkylineResult> ComputeAggregateSkylineBounded(
    const GroupedDataset& dataset, const AggregateSkylineOptions& options);

/// A group together with the smallest γ for which it belongs to the
/// skyline.
struct RankedGroup {
  uint32_t id = 0;
  std::string label;
  /// The largest domination probability any other group scores against this
  /// group, clamped up to 0.5: the group is in Sky_γ for every γ >= min_gamma
  /// (unless always_dominated).
  double min_gamma = 0.5;
  /// True when some group dominates this one with probability 1 (strict
  /// dominance): the group is in no γ-skyline.
  bool always_dominated = false;
  /// The group scoring the highest domination probability against this one
  /// (its "strongest attacker"); equal to `id` itself when nothing attacks
  /// it at all (probability 0 from everyone).
  uint32_t strongest_dominator = 0;
  /// That attacker's domination probability.
  double strongest_probability = 0.0;
};

/// Ranks all groups by the minimum γ at which they enter the skyline
/// (Section 2.2's "compute all groups that can be in an aggregate skyline
/// and return them in sorted order"). Strictly dominated groups sort last.
/// Cost is one exact domination probability per ordered group pair.
std::vector<RankedGroup> RankByGamma(const GroupedDataset& dataset);

/// Budget-aware RankByGamma: charges each pair's |S|·|R| record
/// comparisons to `exec` before scanning it and fails with the trip status
/// once the control plane stops. A partial ranking is never returned — the
/// ordering is only meaningful over the full pair matrix. The unwind
/// latency is one pair product (an exact probability is an atomic unit),
/// coarser than the kChargeBatch slice of the counting kernels. A null
/// `exec` is unbounded.
Result<std::vector<RankedGroup>> RankByGammaBounded(
    const GroupedDataset& dataset, ExecutionContext* exec);

}  // namespace galaxy::core

