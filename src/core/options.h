#pragma once

#include <cstdint>
#include <string>

#include "core/exec_context.h"

namespace galaxy::core {

/// The aggregate-skyline algorithms of Section 3, plus an exhaustive
/// ground-truth mode.
enum class Algorithm {
  /// All-pairs exact computation with no pruning at all (not in the paper;
  /// the reference result used by the test suite).
  kBruteForce,
  /// Algorithm 2 — nested loop with the internal stopping rule ("NL").
  kNestedLoop,
  /// Algorithm 3 — nested loop exploiting weak transitivity ("TR").
  kTransitive,
  /// Algorithm 4 — sorted access to groups ("SI").
  kSorted,
  /// Algorithm 5 — R-tree window queries for candidate dominators ("IN").
  kIndexed,
  /// Algorithm 5 + bounding-box internal approximation ("LO").
  kIndexedBbox,
  /// The served configuration: kIndexed with prune_strongly_dominated
  /// forced to false (safe-mode IN), which is exact. GROUP BY … SKYLINE OF
  /// runs it; algorithm_used reports kIndexed.
  kAuto,
};

const char* AlgorithmToString(Algorithm algorithm);

/// Keys available for ordering group access in the sorted/indexed
/// algorithms.
enum class GroupOrdering {
  /// Descending sum of L1 distances of the MBB corners from the origin
  /// (Algorithm 4): groups likely to dominate are probed first.
  kCornerDistance,
  /// Ascending cardinality (the global optimization of Section 3.4): cheap
  /// comparisons first, and large expensive groups are often pruned before
  /// they are reached.
  kSmallestFirst,
  /// Ascending cardinality, ties broken by descending corner distance.
  kSmallestFirstThenCorner,
};

const char* GroupOrderingToString(GroupOrdering ordering);

/// Configuration of a ComputeAggregateSkyline call. Defaults reproduce the
/// paper's experimental setup (γ = 0.5; stopping rule on everywhere; MBB
/// approximation only in LO, which sets use_mbb itself).
struct AggregateSkylineOptions {
  /// Dominance threshold γ in [0.5, 1] (Definition 3, Proposition 1).
  double gamma = 0.5;

  Algorithm algorithm = Algorithm::kIndexed;

  /// Internal stopping rule (Section 3.3). On for every paper algorithm.
  bool use_stop_rule = true;

  /// Internal MBB-region pruning (Figure 9). The paper enables this only in
  /// LO; setting it here forces it for any algorithm (ablations).
  bool use_mbb = false;

  /// Skip strongly-dominated groups as comparison candidates, as Algorithms
  /// 3-5 do (weak transitivity; DESIGN.md erratum 3). False is "safe mode":
  /// TR/SI/IN/LO are exact. IN/LO stop probing a group once it is strongly
  /// dominated in both modes, which is exact (DESIGN.md §3b).
  bool prune_strongly_dominated = true;

  /// Use the provably sufficient strong threshold γ̄ = (3+γ)/4 instead of
  /// the paper's (refuted) Proposition 5 formula; see DESIGN.md erratum 3.
  /// Strong domination then fires less often, trading pruning for a sound
  /// two-step chain argument.
  bool use_proven_gamma_bar = false;

  /// Group access ordering for kSorted / kIndexed / kIndexedBbox.
  GroupOrdering ordering = GroupOrdering::kCornerDistance;

  /// Optional execution control plane (deadline, cancellation token,
  /// resource budgets; core/exec_context.h). Only honored by the
  /// Status-returning entry point ComputeAggregateSkylineBounded; the
  /// legacy value-returning ComputeAggregateSkyline requires it to stay
  /// null. Null means unbounded.
  ExecutionContext* exec = nullptr;

  /// When the control plane stops the run for a deadline, a cancellation
  /// or the comparison budget, degrade gracefully instead of erroring:
  /// keep the interrupted run's marks, drop the groups the MBB corner test
  /// proves fully dominated, and return the sound over-approximation
  /// tagged ResultQuality::kApproximateSuperset (memory-budget trips always
  /// error). Ignored when exec is null.
  bool allow_approximate = false;
};

/// Work counters accumulated over one aggregate-skyline computation.
struct AggregateSkylineStats {
  uint64_t group_pairs_classified = 0;  ///< decided pair classifications
                                        ///< (aborted ones decide nothing
                                        ///< and are not counted)
  uint64_t record_comparisons = 0;      ///< record-level dominance tests
  uint64_t pairs_skipped_strong = 0;    ///< pair comparisons skipped because
                                        ///< a side was strongly dominated
  uint64_t pairs_skipped_dedup = 0;     ///< indexed: duplicate pair skips
  uint64_t window_candidates = 0;       ///< indexed: candidates returned by
                                        ///< window queries
  uint64_t mbb_shortcuts = 0;           ///< pairs decided by corner test only
  uint64_t stopped_early = 0;           ///< pairs ended by the stopping rule
  uint64_t records_preclassified = 0;   ///< records the MBB corner test kept
                                        ///< out of the pairwise scans
  double wall_seconds = 0.0;

  std::string ToString() const;
};

}  // namespace galaxy::core

