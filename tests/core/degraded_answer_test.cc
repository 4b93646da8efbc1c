// The degraded answer of ComputeAggregateSkylineBounded: after a deadline,
// cancellation or comparison-budget trip with allow_approximate set, the
// result is the interrupted run's own marks plus the MBB corner pass, and
// must be a sound superset of the Definition-3 skyline with every mark
// true. Covers contexts stopped before the run, zero and one-comparison
// budgets, adversarial datasets under several configurations and trigger
// points, and the corner test's edge cases.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_skyline.h"
#include "core/exec_context.h"
#include "core/gamma.h"
#include "datagen/groups.h"
#include "testing/differential.h"
#include "testing/fault_injection.h"
#include "testing/oracle.h"
#include "testing/property_gen.h"

namespace galaxy::testing {
namespace {

core::GroupedDataset TestWorkload(uint64_t seed) {
  datagen::GroupedWorkloadConfig config;
  config.num_records = 400;
  config.avg_records_per_group = 16;
  config.dims = 3;
  config.seed = seed;
  return datagen::GenerateGrouped(config);
}

OracleResult Oracle(const core::GroupedDataset& dataset, double gamma) {
  return ComputeOracle(dataset, core::GammaThresholds::FromGamma(gamma));
}

// The configuration GROUP BY … SKYLINE OF serves.
DifferentialConfig Served() {
  DifferentialConfig config;
  config.algorithm = core::Algorithm::kAuto;
  return config;
}

// An algorithm with the paper's defaults (strong-domination pruning on).
DifferentialConfig PaperMode(core::Algorithm algorithm) {
  DifferentialConfig config;
  config.algorithm = algorithm;
  config.use_mbb = algorithm == core::Algorithm::kIndexedBbox;
  return config;
}

// Runs the served configuration on a context cancelled before the run,
// so the interrupted run proves nothing and every drop is the corner
// pass's.
core::AggregateSkylineResult CancelledBeforeRun(
    const core::GroupedDataset& dataset, double gamma) {
  core::ExecutionContext exec;
  exec.RequestCancel();
  core::AggregateSkylineOptions options;
  options.gamma = gamma;
  options.algorithm = core::Algorithm::kAuto;
  options.exec = &exec;
  options.allow_approximate = true;
  auto result = core::ComputeAggregateSkylineBounded(dataset, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(DegradedAnswerTest, CancelledBeforeRunIsSoundSuperset) {
  core::GroupedDataset ds = TestWorkload(11);
  OracleResult oracle = Oracle(ds, 0.5);
  core::AggregateSkylineResult result = CancelledBeforeRun(ds, 0.5);
  EXPECT_EQ(CheckDegraded(ds, oracle, result), "");
  EXPECT_EQ(result.stats.group_pairs_classified, 0u);
}

TEST(DegradedAnswerTest, ZeroAndOneComparisonBudgetsAreSoundSupersets) {
  core::GroupedDataset ds = TestWorkload(12);
  OracleResult oracle = Oracle(ds, 0.5);
  for (uint64_t budget : {0u, 1u}) {
    FaultPlan plan;
    plan.kind = FaultKind::kComparisonBudget;
    plan.trigger = budget;
    plan.allow_approximate = true;
    FaultCheckOutcome outcome = RunFaultCheck(ds, 0.5, Served(), oracle, plan);
    EXPECT_TRUE(outcome.tripped) << plan.Name();
    EXPECT_TRUE(outcome.ok) << plan.Name() << ": " << outcome.detail;
  }
}

TEST(DegradedAnswerTest, AdversarialDatasetsStaySoundAtEveryTrigger) {
  const std::vector<DifferentialConfig> configs = {
      Served(), PaperMode(core::Algorithm::kNestedLoop),
      PaperMode(core::Algorithm::kIndexed)};
  int tripped = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    PointGroups points = GenerateAdversarialPoints(rng);
    const double gamma = PickAdversarialGamma(rng);
    core::GroupedDataset ds = PointsToDataset(points);
    OracleResult oracle = Oracle(ds, gamma);
    for (const DifferentialConfig& config : configs) {
      for (FaultKind kind : {FaultKind::kCancel, FaultKind::kDeadline,
                             FaultKind::kComparisonBudget}) {
        for (uint64_t trigger : {1u, 16u, 256u, 1024u}) {
          FaultPlan plan;
          plan.kind = kind;
          plan.trigger = trigger;
          plan.allow_approximate = true;
          FaultCheckOutcome outcome =
              RunFaultCheck(ds, gamma, config, oracle, plan);
          EXPECT_TRUE(outcome.ok) << "seed " << seed << " " << config.Name()
                                  << " " << plan.Name() << ": "
                                  << outcome.detail;
          if (outcome.tripped) ++tripped;
        }
      }
    }
  }
  // Trigger 1 trips every run that charges at all.
  EXPECT_GT(tripped, 0);
}

TEST(DegradedAnswerTest, EmptyGroupNeitherDropsNorIsDropped) {
  // Group 1 is empty: its MBB min corner is +inf (it would dominate every
  // max corner) and its max corner is -inf (every min corner would
  // dominate it).
  core::GroupedDataset ds = core::GroupedDataset::FromPoints(
      {{{1.0, 1.0}}, {}, {{0.0, 0.0}}});
  core::AggregateSkylineResult result = CancelledBeforeRun(ds, 0.5);
  EXPECT_EQ(result.skyline, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(result.dominated[1], 0);
  EXPECT_EQ(result.dominated[2], 1);
  EXPECT_EQ(CheckDegraded(ds, Oracle(ds, 0.5), result), "");
}

TEST(DegradedAnswerTest, MaxCornerEqualToMinCornerIsKept) {
  // min of group 0 == max of group 1 == (1, 1): the records at that corner
  // tie, so p(g0 ≻ g1) = 3/4 < 1 and the corner test proves nothing.
  core::GroupedDataset ds = core::GroupedDataset::FromPoints(
      {{{1.0, 1.0}, {2.0, 2.0}}, {{0.0, 0.0}, {1.0, 1.0}}});
  core::AggregateSkylineResult result = CancelledBeforeRun(ds, 0.5);
  EXPECT_EQ(result.skyline, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(CheckDegraded(ds, Oracle(ds, 0.5), result), "");
}

TEST(DegradedAnswerTest, DuplicateSinglePointGroupsAreKept) {
  core::GroupedDataset ds = core::GroupedDataset::FromPoints(
      {{{0.5, 0.5}}, {{0.5, 0.5}}, {{0.5, 0.5}}});
  core::AggregateSkylineResult result = CancelledBeforeRun(ds, 1.0);
  EXPECT_EQ(result.skyline, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(CheckDegraded(ds, Oracle(ds, 1.0), result), "");
}

TEST(DegradedAnswerTest, DroppedGroupCarriesBothMarks) {
  // min of group 0 = (2, 2) dominates max of group 1 = (1, 1): p = 1, which
  // Definition 3 counts as domination even at γ = 1.
  core::GroupedDataset ds = core::GroupedDataset::FromPoints(
      {{{2.0, 2.0}, {3.0, 3.0}}, {{0.0, 0.0}, {1.0, 1.0}}});
  core::AggregateSkylineResult result = CancelledBeforeRun(ds, 1.0);
  EXPECT_EQ(result.skyline, (std::vector<uint32_t>{0}));
  EXPECT_EQ(result.dominated[1], 1);
  EXPECT_EQ(result.strongly_dominated[1], 1);
  EXPECT_EQ(result.quality, core::ResultQuality::kApproximateSuperset);
  EXPECT_EQ(CheckDegraded(ds, Oracle(ds, 1.0), result), "");
}

}  // namespace
}  // namespace galaxy::testing
