#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/exec_context.h"
#include "testing/differential.h"
#include "testing/oracle.h"

namespace galaxy::testing {

/// The fault classes the control plane can be hit with mid-run. All three
/// are injected deterministically at a chosen comparison count (see
/// ExecutionContext::InjectCancelAtComparison and friends), so a failing
/// (dataset seed, plan) pair replays exactly.
enum class FaultKind {
  kCancel,            // cooperative cancellation
  kDeadline,          // wall-clock deadline expiry
  kComparisonBudget,  // max_comparisons resource cap
};

const char* FaultKindToString(FaultKind kind);

/// One planned mid-run fault.
struct FaultPlan {
  FaultKind kind = FaultKind::kCancel;
  /// Charged-work count at which the fault fires. 0 fires before the first
  /// comparison; a trigger beyond the total work never fires at all (the
  /// run must then complete exactly).
  uint64_t trigger = 0;
  /// Caller opts into graceful degradation instead of an error.
  bool allow_approximate = false;

  std::string Name() const;
};

/// Outcome of one fault-checked run.
struct FaultCheckOutcome {
  bool ok = false;
  /// Empty when ok; else the first violated property.
  std::string detail;
  /// Whether the fault actually fired (small inputs may finish first).
  bool tripped = false;
};

/// Runs `config` on `dataset` through ComputeAggregateSkylineBounded with
/// the planned fault armed, then checks the control-plane contract:
///  - the run stops within a bounded number of comparisons after the
///    trigger (the in-flight charge batch plus per-pair preclassification
///    slack);
///  - if the fault never fired, the result is exact and passes the full
///    differential check against the oracle;
///  - if it fired without allow_approximate, the returned Status code
///    matches the injected fault kind;
///  - if it fired with allow_approximate, the degraded result is a sound
///    superset of the oracle skyline, every dominance mark it carries is
///    true, its structural invariants hold, and a kExact quality claim is
///    backed by exact equality with the oracle.
FaultCheckOutcome RunFaultCheck(const core::GroupedDataset& dataset,
                                double gamma,
                                const DifferentialConfig& config,
                                const OracleResult& oracle,
                                const FaultPlan& plan);

/// Draws a randomized fault plan: kind uniform over the three classes,
/// trigger biased toward the interesting region (0, 1, just past the MBB
/// preclassification, mid-run, just before/after the total work of a
/// fault-free reference run), allow_approximate on half the draws.
FaultPlan RandomFaultPlan(Rng& rng, uint64_t reference_total_comparisons);

/// A failing (dataset, plan, config) combination, replayable from the
/// generator seed.
struct FaultDivergence {
  bool found = false;
  uint64_t dataset_seed = 0;
  double gamma = 0.5;
  DifferentialConfig config;
  FaultPlan plan;
  std::string detail;
};

/// Fuzz loop: `iterations` rounds of (adversarial dataset, adversarial γ,
/// random configuration, random fault plan), stopping at the first
/// violation. `fault_points_run`, when non-null, receives the number of
/// individual fault checks executed.
FaultDivergence FuzzFaults(uint64_t seed, int iterations,
                           uint64_t* fault_points_run = nullptr);

}  // namespace galaxy::testing

