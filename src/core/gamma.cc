#include "core/gamma.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "core/count_kernel.h"

namespace galaxy::core {

GammaThresholds GammaThresholds::FromGamma(double gamma) {
  GALAXY_CHECK_GE(gamma, 0.5) << "gamma must be >= 0.5 for asymmetry";
  GALAXY_CHECK_LE(gamma, 1.0);
  GammaThresholds t;
  t.gamma = gamma;
  // Proposition 5's threshold 1 - sqrt(1-γ)/2 falls below γ itself once
  // γ > 3/4; "strong" domination must still imply plain γ-domination (the
  // algorithms exclude strongly dominated groups from the result), so the
  // effective strong threshold is clamped to at least γ. This keeps the
  // weak-transitivity premise (p > 1 - sqrt(1-γ)/2) intact for every γ.
  t.gamma_bar = std::max(gamma, 1.0 - std::sqrt(1.0 - gamma) / 2.0);
  return t;
}

GammaThresholds GammaThresholds::FromGammaProven(double gamma) {
  GALAXY_CHECK_GE(gamma, 0.5) << "gamma must be >= 0.5 for asymmetry";
  GALAXY_CHECK_LE(gamma, 1.0);
  GammaThresholds t;
  t.gamma = gamma;
  // Union bound over the domination-matrix product (DESIGN.md erratum 3):
  // with zero-fractions a, b in the R-S and S-T matrices, the product's
  // zero fraction is at most (sqrt(a) + sqrt(b))^2; premise zero-fractions
  // below (1-gamma)/4 each therefore force p(R≻T) > gamma.
  t.gamma_bar = (3.0 + gamma) / 4.0;
  return t;
}

uint64_t CountDominatedPairs(const Group& s, const Group& r) {
  GALAXY_CHECK_EQ(s.dims(), r.dims());
  uint64_t count = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    auto si = s.point(i);
    for (size_t j = 0; j < r.size(); ++j) {
      if (skyline::Dominates(si, r.point(j))) ++count;
    }
  }
  return count;
}

double DominationProbability(const Group& s, const Group& r) {
  uint64_t total = static_cast<uint64_t>(s.size()) * r.size();
  // Definition 3's probability is undefined over an empty group; 0/0 would
  // yield NaN here and poison every downstream comparison. An empty group
  // neither dominates nor is dominated.
  if (total == 0) return 0.0;
  return static_cast<double>(CountDominatedPairs(s, r)) /
         static_cast<double>(total);
}

bool GammaDominates(const Group& s, const Group& r, double gamma) {
  if (s.size() == 0 || r.size() == 0) return false;
  double p = DominationProbability(s, r);
  return p == 1.0 || p > gamma;
}

GammaDriftBounds StabilityBounds(double gamma, double epsilon) {
  GALAXY_CHECK_GE(epsilon, 0.0);
  GALAXY_CHECK_LT(epsilon, 1.0);
  GALAXY_CHECK_GE(gamma, 0.0);
  GALAXY_CHECK_LE(gamma, 1.0);
  GammaDriftBounds bounds;
  bounds.lower = std::max(0.0, (gamma - epsilon) / (1.0 - epsilon));
  bounds.upper = std::min(1.0, gamma / (1.0 - epsilon));
  return bounds;
}

const char* PairOutcomeToString(PairOutcome outcome) {
  switch (outcome) {
    case PairOutcome::kIncomparable:
      return "incomparable";
    case PairOutcome::kFirstDominates:
      return "first-dominates";
    case PairOutcome::kFirstDominatesStrongly:
      return "first-dominates-strongly";
    case PairOutcome::kSecondDominates:
      return "second-dominates";
    case PairOutcome::kSecondDominatesStrongly:
      return "second-dominates-strongly";
  }
  return "?";
}

namespace internal {

BoundDecision DecideDominance(uint64_t known, uint64_t resolved,
                              uint64_t total, double threshold) {
  if (total == 0) {
    // Empty pair space: without this guard `known == total` would claim
    // p == 1 for a pair involving an empty group.
    BoundDecision d;
    d.decided = true;
    d.value = false;
    return d;
  }
  uint64_t upper = known + (total - resolved);
  double bar = threshold * static_cast<double>(total);
  BoundDecision d;
  if (static_cast<double>(known) > bar || known == total) {
    d.decided = true;
    d.value = true;
  } else if (upper < total && !(static_cast<double>(upper) > bar)) {
    d.decided = true;
    d.value = false;
  } else if (resolved == total) {
    d.decided = true;
    d.value = (known == total) || (static_cast<double>(known) > bar);
  }
  return d;
}

MbbPreclassification PreclassifyWithMbb(const Group& g1, const Group& g2) {
  GALAXY_CHECK_GT(g1.size(), 0u);
  GALAXY_CHECK_GT(g2.size(), 0u);
  const Box& b1 = g1.mbb();
  const Box& b2 = g2.mbb();
  const uint64_t n1 = g1.size();
  const uint64_t n2 = g2.size();

  // Figure 9(c): records of one group falling below the other group's min
  // corner are dominated by the entire other group ("area A"); records
  // above the other group's max corner dominate the entire other group
  // ("area C"). Count those pairs analytically and scan only the rest.
  // The rest vectors grow lazily (amortized push_back) instead of
  // reserving the full group size up front: on well-separated groups the
  // corner tests classify almost every record and a full reserve would
  // allocate |g| slots to hold a handful of survivors. Oversized leftover
  // capacity is returned once the survivor count is known.
  MbbPreclassification pre;
  uint64_t a2 = 0;  // g1 records dominated by all of g2 (below b2.min)
  uint64_t c1 = 0;  // g1 records dominating all of g2 (above b2.max)
  for (uint32_t i = 0; i < g1.size(); ++i) {
    auto r = g1.point(i);
    if (skyline::Dominates(b2.min, r)) {
      ++a2;
    } else if (skyline::Dominates(r, b2.max)) {
      ++c1;
    } else {
      pre.rest1.push_back(i);
    }
  }
  uint64_t a1 = 0;  // g2 records dominated by all of g1
  uint64_t c2 = 0;  // g2 records dominating all of g1
  for (uint32_t j = 0; j < g2.size(); ++j) {
    auto s = g2.point(j);
    if (skyline::Dominates(b1.min, s)) {
      ++a1;
    } else if (skyline::Dominates(s, b1.max)) {
      ++c2;
    } else {
      pre.rest2.push_back(j);
    }
  }
  if (pre.rest1.capacity() > 2 * pre.rest1.size()) pre.rest1.shrink_to_fit();
  if (pre.rest2.capacity() > 2 * pre.rest2.size()) pre.rest2.shrink_to_fit();
  // Every pair touching a pre-classified record is decided:
  //   r ≻ s holds for (any r, s in A1) and (r in C1, s not in A1);
  //   s ≻ r holds for (r in A2, any s) and (s in C2, r not in A2);
  //   all other flagged combinations are non-dominating in both
  //   directions.
  pre.n12 = a1 * n1 + c1 * (n2 - a1);
  pre.n21 = a2 * n2 + c2 * (n1 - a2);
  pre.resolved = n1 * n2 -
                 static_cast<uint64_t>(pre.rest1.size()) * pre.rest2.size();
  return pre;
}

bool TryResolveOutcome(uint64_t n12, uint64_t n21, uint64_t resolved,
                       uint64_t total, const GammaThresholds& thresholds,
                       PairOutcome* outcome) {
  BoundDecision f_strong =
      DecideDominance(n12, resolved, total, thresholds.gamma_bar);
  BoundDecision f_gamma =
      DecideDominance(n12, resolved, total, thresholds.gamma);
  BoundDecision s_strong =
      DecideDominance(n21, resolved, total, thresholds.gamma_bar);
  BoundDecision s_gamma =
      DecideDominance(n21, resolved, total, thresholds.gamma);
  // Shortcut exits mirroring the stopping rule of Section 3.3: a decided
  // strong domination ends the comparison; a decided weak domination ends
  // it once strong domination is excluded; four decided negatives mean
  // incomparability.
  if (f_strong.decided && f_strong.value) {
    *outcome = PairOutcome::kFirstDominatesStrongly;
    return true;
  }
  if (s_strong.decided && s_strong.value) {
    *outcome = PairOutcome::kSecondDominatesStrongly;
    return true;
  }
  if (f_gamma.decided && f_gamma.value && f_strong.decided) {
    *outcome = PairOutcome::kFirstDominates;
    return true;
  }
  if (s_gamma.decided && s_gamma.value && s_strong.decided) {
    *outcome = PairOutcome::kSecondDominates;
    return true;
  }
  if (f_gamma.decided && !f_gamma.value && s_gamma.decided &&
      !s_gamma.value) {
    *outcome = PairOutcome::kIncomparable;
    return true;
  }
  return false;
}

}  // namespace internal

namespace {

PairOutcome OutcomeFromPredicates(bool first_gamma, bool first_strong,
                                  bool second_gamma, bool second_strong) {
  if (first_strong) return PairOutcome::kFirstDominatesStrongly;
  if (first_gamma) return PairOutcome::kFirstDominates;
  if (second_strong) return PairOutcome::kSecondDominatesStrongly;
  if (second_gamma) return PairOutcome::kSecondDominates;
  return PairOutcome::kIncomparable;
}

// ---- Residual-scan machinery (core/count_kernel.h orchestration). ---------

// Reused per-thread buffers: the kernel is allocation-free on the steady
// state, the scratch grows to the largest residual seen by this thread.
struct ScanScratch {
  std::vector<double> rows1, rows2;  // gathered residual rows
};

ScanScratch& TlsScanScratch() {
  thread_local ScanScratch scratch;
  return scratch;
}

// Counts and control-plane accounting of one residual scan. Comparisons
// accumulate locally (one add into PairCompareStats at scan end — never a
// per-pair `stats != nullptr` branch) and are charged to the context in
// batches of ExecutionContext::kChargeBatch.
struct ScanState {
  uint64_t n12 = 0;
  uint64_t n21 = 0;
  uint64_t resolved = 0;
  uint64_t total = 0;
  uint64_t comparisons = 0;
  uint64_t uncharged = 0;
  ExecutionContext* exec = nullptr;
  bool aborted = false;

  bool Charge(uint64_t n) {
    comparisons += n;
    if (exec == nullptr) return true;
    uncharged += n;
    if (uncharged >= ExecutionContext::kChargeBatch) {
      const uint64_t amount = uncharged;
      uncharged = 0;
      if (!exec->Charge(amount)) {
        aborted = true;
        return false;
      }
    }
    return true;
  }

  void FlushCharges() {
    if (exec != nullptr && uncharged != 0) {
      exec->Charge(uncharged);
      uncharged = 0;
    }
  }
};

// Cache-blocked branch-free counting; the incremental stop rule runs at
// tile boundaries. Charged scans shrink the tile to one charge batch.
bool ScanTiled(const double* rows1, size_t k1, const double* rows2,
               size_t k2, size_t dims, bool use_stop_rule,
               const GammaThresholds& thresholds, ScanState& st,
               PairOutcome* outcome) {
  const size_t tile_rows =
      st.exec != nullptr ? kernel::kBoundedTileEdge : kernel::kTileRows;
  const size_t tile_cols =
      st.exec != nullptr ? kernel::kBoundedTileEdge : kernel::kTileCols;
  for (size_t i0 = 0; i0 < k1; i0 += tile_rows) {
    const size_t ni = std::min(tile_rows, k1 - i0);
    for (size_t j0 = 0; j0 < k2; j0 += tile_cols) {
      const size_t nj = std::min(tile_cols, k2 - j0);
      kernel::KernelCounts c = kernel::CountBlock(
          rows1 + i0 * dims, ni, rows2 + j0 * dims, nj, dims);
      st.n12 += c.n12;
      st.n21 += c.n21;
      const uint64_t pairs = static_cast<uint64_t>(ni) * nj;
      st.resolved += pairs;
      if (!st.Charge(pairs)) return true;
      if (use_stop_rule &&
          internal::TryResolveOutcome(st.n12, st.n21, st.resolved, st.total,
                                      thresholds, outcome)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

PairOutcome ClassifyPair(const Group& g1, const Group& g2,
                         const GammaThresholds& thresholds,
                         const PairCompareOptions& options,
                         PairCompareStats* stats) {
  GALAXY_CHECK_EQ(g1.dims(), g2.dims());
  const uint64_t n1 = g1.size();
  const uint64_t n2 = g2.size();
  const uint64_t total = n1 * n2;
  if (stats != nullptr) stats->pairs_total = total;

  // An empty group neither dominates nor is dominated (Definition 3's
  // probability is undefined there); its MBB corners are ±infinity, so no
  // later step may touch them.
  if (total == 0) return PairOutcome::kIncomparable;

  ExecutionContext* exec = options.exec;
  if (exec != nullptr && !exec->Charge(0)) {
    if (stats != nullptr) stats->aborted = true;
    return PairOutcome::kIncomparable;
  }

  ScanState st;
  st.total = total;
  st.exec = exec;

  // Residual records needing pairwise scanning. Null means "the whole
  // group" — the kernels then read the group buffer in place, with no
  // index indirection and no per-pair allocation.
  std::vector<uint32_t> rest1;
  std::vector<uint32_t> rest2;
  const std::vector<uint32_t>* rest1_ptr = nullptr;
  const std::vector<uint32_t>* rest2_ptr = nullptr;

  if (options.use_mbb) {
    const Box& b1 = g1.mbb();
    const Box& b2 = g2.mbb();
    // Figure 9(b): a corner-only decision. If g2's min corner dominates
    // g1's max corner, every record of g2 dominates every record of g1.
    if (skyline::Dominates(b2.min, b1.max)) {
      if (stats != nullptr) {
        stats->mbb_strict_shortcut = true;
        stats->pairs_resolved_by_mbb = total;
      }
      return PairOutcome::kSecondDominatesStrongly;
    }
    if (skyline::Dominates(b1.min, b2.max)) {
      if (stats != nullptr) {
        stats->mbb_strict_shortcut = true;
        stats->pairs_resolved_by_mbb = total;
      }
      return PairOutcome::kFirstDominatesStrongly;
    }

    internal::MbbPreclassification pre = internal::PreclassifyWithMbb(g1, g2);
    st.n12 = pre.n12;
    st.n21 = pre.n21;
    st.resolved = pre.resolved;
    rest1 = std::move(pre.rest1);
    rest2 = std::move(pre.rest2);
    rest1_ptr = &rest1;
    rest2_ptr = &rest2;
    if (stats != nullptr) {
      stats->record_comparisons += 2 * (n1 + n2);  // corner tests
      stats->pairs_resolved_by_mbb = st.resolved;
      stats->records_preclassified =
          (n1 - rest1.size()) + (n2 - rest2.size());
    }
    if (exec != nullptr && !exec->Charge(2 * (n1 + n2))) {
      if (stats != nullptr) stats->aborted = true;
      return PairOutcome::kIncomparable;
    }
  }

  const size_t dims = g1.dims();
  const size_t k1 = rest1_ptr != nullptr ? rest1_ptr->size() : g1.size();
  const size_t k2 = rest2_ptr != nullptr ? rest2_ptr->size() : g2.size();
  const uint64_t residual_pairs = static_cast<uint64_t>(k1) * k2;

  PairOutcome outcome;
  if (options.use_stop_rule &&
      internal::TryResolveOutcome(st.n12, st.n21, st.resolved, total,
                                  thresholds, &outcome)) {
    if (stats != nullptr) stats->stopped_early = st.resolved < total;
    return outcome;
  }

  bool ended_early = false;
  if (residual_pairs > 0) {
    ScanScratch& sc = TlsScanScratch();
    const double* rows1 = g1.data().data();
    const double* rows2 = g2.data().data();
    if (rest1_ptr != nullptr) {
      kernel::GatherRows(rows1, rest1_ptr->data(), k1, dims, &sc.rows1);
      rows1 = sc.rows1.data();
    }
    if (rest2_ptr != nullptr) {
      kernel::GatherRows(rows2, rest2_ptr->data(), k2, dims, &sc.rows2);
      rows2 = sc.rows2.data();
    }
    ended_early = ScanTiled(rows1, k1, rows2, k2, dims, options.use_stop_rule,
                            thresholds, st, &outcome);
  }

  if (st.aborted) {
    if (stats != nullptr) {
      stats->record_comparisons += st.comparisons;
      stats->aborted = true;
    }
    return PairOutcome::kIncomparable;
  }
  st.FlushCharges();
  if (stats != nullptr) stats->record_comparisons += st.comparisons;
  if (ended_early) {
    if (stats != nullptr) stats->stopped_early = st.resolved < total;
    return outcome;
  }

  // Exhaustive path (stop rule disabled, or undecidable until the end —
  // the latter cannot happen since at resolution == total everything is
  // decided).
  const double gamma = thresholds.gamma;
  const double gamma_bar = thresholds.gamma_bar;
  const uint64_t n12 = st.n12;
  const uint64_t n21 = st.n21;
  bool first_strong =
      n12 == total ||
      static_cast<double>(n12) > gamma_bar * static_cast<double>(total);
  bool first_gamma =
      n12 == total ||
      static_cast<double>(n12) > gamma * static_cast<double>(total);
  bool second_strong =
      n21 == total ||
      static_cast<double>(n21) > gamma_bar * static_cast<double>(total);
  bool second_gamma =
      n21 == total ||
      static_cast<double>(n21) > gamma * static_cast<double>(total);
  return OutcomeFromPredicates(first_gamma, first_strong, second_gamma,
                               second_strong);
}

}  // namespace galaxy::core
