#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/count_kernel.h"
#include "core/exec_context.h"
#include "core/group.h"

namespace galaxy::core {

/// The pair of thresholds steering a γ-skyline computation: γ itself
/// (Definition 3; must be >= 0.5 for asymmetry, Proposition 1) and the
/// derived weak-transitivity threshold γ̄ = max(γ, 1 − √(1−γ)/2)
/// (Proposition 5; the max() clamp keeps strong domination a special case
/// of γ-domination for γ > 3/4 — see DESIGN.md, "reproduction notes").
struct GammaThresholds {
  double gamma;
  double gamma_bar;

  /// Derives γ̄ from γ with the paper's formula (clamped); aborts if γ is
  /// outside [0.5, 1].
  static GammaThresholds FromGamma(double gamma);

  /// Derives a *provably sufficient* γ̄ = (3+γ)/4 instead. The paper's
  /// Proposition 5 threshold is refuted by explicit counterexamples (see
  /// DESIGN.md erratum 3); this variant follows from a union-bound on the
  /// domination-matrix product: if p(R≻S) and p(S≻T) both exceed (3+γ)/4,
  /// then p(R≻T) > γ. Always ≥ the paper threshold, so pruning fires less
  /// often but the two-step chain argument actually holds.
  static GammaThresholds FromGammaProven(double gamma);
};

/// Number of ordered record pairs (s, r) in S x R with s ≻ r (the paper's
/// |S ≻ R|). Exact, exhaustive O(|S|·|R|·d).
uint64_t CountDominatedPairs(const Group& s, const Group& r);

/// p(S ≻ R) = |S ≻ R| / (|S|·|R|) (Definition 3). Exact. Definition 3's
/// probability is undefined when either group is empty; by convention an
/// empty group neither dominates nor is dominated, so the probability is
/// defined as 0 (never NaN).
double DominationProbability(const Group& s, const Group& r);

/// True iff S γ-dominates R: p(S ≻ R) = 1 or p(S ≻ R) > γ (Definition 3).
/// False whenever either group is empty (an empty group neither dominates
/// nor is dominated).
bool GammaDominates(const Group& s, const Group& r, double gamma);

/// The classification of one group pair against both thresholds.
/// "Strongly" (γ̄-domination) implies plain (γ) domination since γ̄ >= γ.
/// At most one direction can dominate when γ >= 0.5 (asymmetry).
enum class PairOutcome {
  kIncomparable,
  kFirstDominates,          ///< g1 ≻γ g2 but not g1 ≻γ̄ g2
  kFirstDominatesStrongly,  ///< g1 ≻γ̄ g2
  kSecondDominates,         ///< g2 ≻γ g1 but not g2 ≻γ̄ g1
  kSecondDominatesStrongly  ///< g2 ≻γ̄ g1
};

const char* PairOutcomeToString(PairOutcome outcome);

/// Work counters for a single pair classification.
struct PairCompareStats {
  uint64_t record_comparisons = 0;  ///< pairwise dominance tests executed
  uint64_t pairs_total = 0;         ///< |g1| * |g2|
  uint64_t pairs_resolved_by_mbb = 0;  ///< pairs decided from MBB regions
  /// Records (from either group) classified analytically against the other
  /// group's MBB corners, skipping their pairwise scans entirely.
  uint64_t records_preclassified = 0;
  /// The counting kernel ClassifyPair chose for the residual scan (left
  /// at kTiled when no scan ran).
  KernelPolicy kernel_used = KernelPolicy::kTiled;
  bool mbb_strict_shortcut = false;    ///< decided by min/max corner alone
  bool stopped_early = false;          ///< stop rule fired before full scan
  /// The governing ExecutionContext stopped the scan before the pair was
  /// classified; the returned outcome is kIncomparable and must NOT be
  /// recorded as knowledge about the pair.
  bool aborted = false;

  /// Fraction of the pair's records decided by MBB preclassification
  /// (0 when the MBB optimization is off or the groups are empty).
  double preclassified_record_fraction(uint64_t total_records) const {
    if (total_records == 0) return 0.0;
    return static_cast<double>(records_preclassified) /
           static_cast<double>(total_records);
  }
};

/// Tuning knobs for pair classification (Section 3.3 of the paper).
struct PairCompareOptions {
  /// Abort the pairwise scan once the outcome is decided w.r.t. both γ and
  /// γ̄ ("stopping rule").
  bool use_stop_rule = true;
  /// Pre-classify records against the opposing group's MBB corners
  /// (Figure 9 (b)-(c)): records below the opponent's min corner are
  /// dominated by the whole opponent group, records above its max corner
  /// dominate the whole group; only the residual block is scanned.
  bool use_mbb = false;
  /// Optional control plane: record comparisons are charged to it in
  /// batches of ExecutionContext::kChargeBatch, and the scan aborts
  /// (stats->aborted) within one batch of the context stopping. Null means
  /// unbounded (no charging at all).
  ExecutionContext* exec = nullptr;
};

/// Classifies the pair (g1, g2) against the thresholds. The result is
/// identical for every option combination; options only change the work
/// performed. The residual scan tiles when charged, when the stop rule is
/// off, at d <= kernel::kTiledMaxDims or below kernel::kSortedMinPairs
/// residual pairs, and runs the sorted kernel otherwise
/// (core/count_kernel.h). `stats` may be null. A pair involving an empty
/// group is always kIncomparable (see DominationProbability).
PairOutcome ClassifyPair(const Group& g1, const Group& g2,
                         const GammaThresholds& thresholds,
                         const PairCompareOptions& options = {},
                         PairCompareStats* stats = nullptr);

/// The interval γ' can move to when an ε-fraction of the dominating
/// group's records is removed (Property 2, with the corrected tight
/// constants — DESIGN.md erratum 2): [max(0, (γ−ε)/(1−ε)), min(1, γ/(1−ε))].
struct GammaDriftBounds {
  double lower;
  double upper;
};

/// Computes the corrected stability-to-updates bounds; requires ε in [0, 1).
GammaDriftBounds StabilityBounds(double gamma, double epsilon);

namespace internal {

/// Decidability of the predicate "final count == total || final count >
/// threshold * total" given `known` true pairs out of `resolved` processed
/// pairs (the final count lies in [known, known + total - resolved]).
/// `total == 0` (an empty group on either side) decides to false: an empty
/// group neither dominates nor is dominated.
struct BoundDecision {
  bool decided = false;
  bool value = false;
};

BoundDecision DecideDominance(uint64_t known, uint64_t resolved,
                              uint64_t total, double threshold);

/// The analytic pair accounting of the Figure 9(c) MBB pre-classification:
/// records of one group below the other group's MBB min corner are
/// dominated by the entire other group ("area A"); records above the other
/// group's MBB max corner dominate the entire other group ("area C"). The
/// counts cover every ordered record pair touching a pre-classified record;
/// only rest1 x rest2 remains to be scanned pairwise. Requires both groups
/// non-empty.
struct MbbPreclassification {
  uint64_t n12 = 0;      ///< pre-classified pairs (r in g1, s in g2), r ≻ s
  uint64_t n21 = 0;      ///< pre-classified pairs with s ≻ r
  uint64_t resolved = 0; ///< |g1|·|g2| − |rest1|·|rest2|
  std::vector<uint32_t> rest1;  ///< g1 records needing pairwise scanning
  std::vector<uint32_t> rest2;  ///< g2 records needing pairwise scanning
};

MbbPreclassification PreclassifyWithMbb(const Group& g1, const Group& g2);

/// Tries to determine the pair outcome from partial counts (the Section
/// 3.3 stopping rule): returns true and sets `*outcome` once the
/// classification can no longer change.
bool TryResolveOutcome(uint64_t n12, uint64_t n21, uint64_t resolved,
                       uint64_t total, const GammaThresholds& thresholds,
                       PairOutcome* outcome);

}  // namespace internal

}  // namespace galaxy::core

