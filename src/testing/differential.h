#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/aggregate_skyline.h"
#include "testing/oracle.h"
#include "testing/property_gen.h"

namespace galaxy::testing {

/// One algorithm configuration of the differential matrix: an algorithm
/// with its tuning knobs.
struct DifferentialConfig {
  core::Algorithm algorithm = core::Algorithm::kBruteForce;
  bool use_mbb = false;
  bool use_stop_rule = true;
  bool prune_strongly_dominated = true;
  core::GroupOrdering ordering = core::GroupOrdering::kCornerDistance;
  /// Counting kernel for every pairwise residual scan; every policy must
  /// yield identical results (core/count_kernel.h).
  core::KernelPolicy kernel = core::KernelPolicy::kAuto;

  /// True when the configuration must reproduce the oracle's dominated and
  /// strongly_dominated vectors exactly: BF/NL (which classify every
  /// pair), kAuto (safe-mode IN whatever prune_strongly_dominated says)
  /// and any algorithm in safe mode (prune_strongly_dominated = false).
  /// Pruned TR/SI/IN/LO may legitimately return a superset of the skyline
  /// (the weak-transitivity gap; DESIGN.md §3).
  bool exact() const;

  /// "TR prune=1 mbb=1 stop=0" — for messages.
  std::string Name() const;
};

/// The full differential matrix: every sequential algorithm crossed with
/// {use_mbb} × {use_stop_rule} × {prune_strongly_dominated}, alternative
/// group orderings for the order-sensitive algorithms, and every explicit
/// counting kernel (against the kAuto default used everywhere else) under
/// NL and under safe-mode IN, and Algorithm::kAuto as GROUP BY … SKYLINE
/// OF requests it.
std::vector<DifferentialConfig> AllConfigurations();

/// Runs one configuration on the dataset.
core::AggregateSkylineResult RunConfiguration(
    const core::GroupedDataset& dataset, double gamma,
    const DifferentialConfig& config);

/// Checks one result against the oracle under the documented semantics:
/// structural invariants (skyline ascending and equal to the unmarked
/// groups, strong implies dominated), mark soundness (every mark the
/// algorithm set is true per the oracle), the reported algorithm
/// identifier (kIndexed for kAuto), exactness for exact() configurations, and for pruned
/// configurations that every surplus skyline group is explained by the
/// weak-transitivity gap (all its true γ-dominators carry the algorithm's
/// own strongly-dominated mark). Returns "" when consistent, else a
/// description of the first disagreement.
std::string CheckResult(const core::GroupedDataset& dataset, double gamma,
                        const DifferentialConfig& config,
                        const OracleResult& oracle,
                        const core::AggregateSkylineResult& result);

/// Runs `config` and checks it; "" when consistent.
std::string RunAndCheck(const core::GroupedDataset& dataset, double gamma,
                        const DifferentialConfig& config,
                        const OracleResult& oracle);

/// A divergence found by the harness.
struct Divergence {
  bool found = false;
  DifferentialConfig config;
  std::string detail;
};

/// Runs every configuration of AllConfigurations() against the oracle;
/// stops at the first disagreement.
Divergence CheckDataset(const core::GroupedDataset& dataset, double gamma);

/// A minimal failing input, ready to be checked in as a regression test.
struct Reproducer {
  PointGroups groups;
  double gamma = 0.5;
  DifferentialConfig config;
  std::string detail;
  /// Seed of the dataset that produced the failure (0 when unknown);
  /// embedded in the generated test name so the original campaign is
  /// recoverable from the pasted test alone.
  uint64_t dataset_seed = 0;
};

/// Greedily shrinks a failing input while the same configuration keeps
/// disagreeing with the oracle: drop whole groups, then drop individual
/// records, then round coordinates to coarser grids. The result is a local
/// minimum: no single further step still fails.
Reproducer Shrink(const PointGroups& groups, double gamma,
                  const DifferentialConfig& config);

/// Renders the reproducer as a ready-to-paste C++ gtest case. The test
/// name is deterministic — Repro_<hash>_Seed<seed>, where the hash covers
/// the configuration, gamma and every coordinate — so two reproducers
/// collide in name only if they are the same failure.
std::string ReproducerToCpp(const Reproducer& repro);

}  // namespace galaxy::testing

