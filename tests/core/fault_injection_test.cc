// Fault-injection campaign over the differential matrix: cancellation,
// deadline, and budget trips at randomized comparison counts must yield
// bounded unwinds and either the matching error Status or a sound
// approximate superset. The ISSUE acceptance bar is 1000+ randomized
// fault points, which FaultInjectionTest.ThousandRandomizedFaultPoints
// clears in one run.

#include "testing/fault_injection.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_skyline.h"
#include "core/exec_context.h"
#include "core/gamma.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/property_gen.h"

namespace galaxy::testing {
namespace {

// Fixed small workload used by the targeted edge-case tests below.
struct FaultFixture {
  core::GroupedDataset dataset;
  double gamma;
  OracleResult oracle;

  static FaultFixture Make(uint64_t seed) {
    Rng rng(seed);
    PointGroups points = GenerateAdversarialPoints(rng);
    double gamma = PickAdversarialGamma(rng);
    core::GroupedDataset dataset = PointsToDataset(points);
    OracleResult oracle =
        ComputeOracle(dataset, core::GammaThresholds::FromGamma(gamma));
    return {std::move(dataset), gamma, std::move(oracle)};
  }
};

TEST(FaultInjectionTest, ThousandRandomizedFaultPoints) {
  uint64_t points = 0;
  FaultDivergence divergence = FuzzFaults(/*seed=*/20260806,
                                          /*iterations=*/250, &points);
  EXPECT_GE(points, 1000u);
  EXPECT_FALSE(divergence.found)
      << "dataset seed " << divergence.dataset_seed << " gamma "
      << divergence.gamma << "\nconfig: " << divergence.config.Name()
      << "\nplan: " << divergence.plan.Name()
      << "\ndetail: " << divergence.detail;
}

TEST(FaultInjectionTest, TriggerZeroWithDegradationIsSoundSuperset) {
  FaultFixture f = FaultFixture::Make(101);
  FaultPlan plan;
  plan.kind = FaultKind::kCancel;
  plan.trigger = 0;
  plan.allow_approximate = true;
  for (const DifferentialConfig& config : AllConfigurations()) {
    FaultCheckOutcome outcome =
        RunFaultCheck(f.dataset, f.gamma, config, f.oracle, plan);
    EXPECT_TRUE(outcome.ok) << config.Name() << ": " << outcome.detail;
    EXPECT_TRUE(outcome.tripped) << config.Name();
  }
}

TEST(FaultInjectionTest, TriggerZeroWithoutDegradationReportsCancelled) {
  FaultFixture f = FaultFixture::Make(102);
  FaultPlan plan;
  plan.kind = FaultKind::kCancel;
  plan.trigger = 0;
  plan.allow_approximate = false;
  DifferentialConfig config;  // default = brute force, exact
  FaultCheckOutcome outcome =
      RunFaultCheck(f.dataset, f.gamma, config, f.oracle, plan);
  EXPECT_TRUE(outcome.ok) << outcome.detail;
  EXPECT_TRUE(outcome.tripped);
}

TEST(FaultInjectionTest, EachFaultKindChecksItsStatusCode) {
  FaultFixture f = FaultFixture::Make(103);
  DifferentialConfig config;  // default = brute force, exact
  for (FaultKind kind : {FaultKind::kCancel, FaultKind::kDeadline,
                         FaultKind::kComparisonBudget}) {
    FaultPlan plan;
    plan.kind = kind;
    plan.trigger = 1;
    plan.allow_approximate = false;
    FaultCheckOutcome outcome =
        RunFaultCheck(f.dataset, f.gamma, config, f.oracle, plan);
    EXPECT_TRUE(outcome.ok)
        << FaultKindToString(kind) << ": " << outcome.detail;
  }
}

TEST(FaultInjectionTest, TriggerBeyondTotalWorkCompletesExactly) {
  FaultFixture f = FaultFixture::Make(104);
  FaultPlan plan;
  plan.kind = FaultKind::kDeadline;
  plan.trigger = ~uint64_t{0} / 2;  // far past any real workload
  plan.allow_approximate = true;
  for (const DifferentialConfig& config : AllConfigurations()) {
    FaultCheckOutcome outcome =
        RunFaultCheck(f.dataset, f.gamma, config, f.oracle, plan);
    EXPECT_TRUE(outcome.ok) << config.Name() << ": " << outcome.detail;
    EXPECT_FALSE(outcome.tripped) << config.Name();
  }
}

// Equal-sized groups whose single classification needs a
// long exhaustive scan: random d=2 records, 1600 record pairs per group
// pair, no stop rule — so a fault injected a few hundred comparisons in
// reliably aborts a classification mid-scan.
core::GroupedDataset LongScanDataset(size_t num_groups, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Point>> groups(num_groups);
  for (auto& group : groups) {
    for (int r = 0; r < 40; ++r) {
      group.push_back({rng.NextDouble(), rng.NextDouble()});
    }
  }
  return core::GroupedDataset::FromPoints(groups);
}

TEST(FaultInjectionTest, AbortedPairIsNotCountedSequential) {
  // Regression: group_pairs_classified used to be incremented before the
  // aborted check, so a classification the control plane cut short still
  // counted as "classified" — diverging from the decided-pair semantics.
  core::GroupedDataset ds = LongScanDataset(2, 201);
  for (core::Algorithm algorithm :
       {core::Algorithm::kBruteForce, core::Algorithm::kNestedLoop}) {
    core::ExecutionContext ctx;
    ctx.InjectCancelAtComparison(300);  // mid-scan of the only pair
    core::AggregateSkylineOptions options;
    options.algorithm = algorithm;
    options.use_stop_rule = false;
    options.exec = &ctx;
    options.allow_approximate = true;  // stats survive degradation
    auto result = core::ComputeAggregateSkylineBounded(ds, options);
    ASSERT_TRUE(result.ok()) << core::AlgorithmToString(algorithm);
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(result.value().stats.group_pairs_classified, 0u)
        << core::AlgorithmToString(algorithm)
        << ": an aborted classification decided nothing";
  }
}

TEST(FaultInjectionTest, PlanNamesAreDescriptive) {
  FaultPlan plan;
  plan.kind = FaultKind::kComparisonBudget;
  plan.trigger = 42;
  plan.allow_approximate = true;
  std::string name = plan.Name();
  EXPECT_NE(name.find("42"), std::string::npos);
  EXPECT_NE(name.find(FaultKindToString(FaultKind::kComparisonBudget)),
            std::string::npos);
}

}  // namespace
}  // namespace galaxy::testing
