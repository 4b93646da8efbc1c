// Differential tests: every algorithm configuration against the exhaustive
// oracle on seeded adversarial datasets, plus regression tests for the
// empty-group semantics and the shrinker.

#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_skyline.h"
#include "core/gamma.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/property_gen.h"

namespace galaxy::testing {
namespace {

TEST(DifferentialMatrixTest, CoversAllAlgorithmsAndServedConfigPerKernel) {
  std::vector<DifferentialConfig> configs = AllConfigurations();
  bool safe_mode = false;
  std::set<core::Algorithm> algorithms;
  // Explicit kernels that run under safe-mode IN, the configuration
  // GROUP BY … SKYLINE OF serves.
  std::set<core::KernelPolicy> served_kernels;
  // kAuto as the executor requests it: pruning left at its default.
  bool served_request = false;
  for (const DifferentialConfig& c : configs) {
    algorithms.insert(c.algorithm);
    if (!c.prune_strongly_dominated) safe_mode = true;
    if (c.algorithm == core::Algorithm::kAuto && c.prune_strongly_dominated &&
        c.kernel == core::KernelPolicy::kAuto) {
      served_request = true;
    }
    if (c.algorithm == core::Algorithm::kIndexed &&
        !c.prune_strongly_dominated && c.kernel != core::KernelPolicy::kAuto) {
      served_kernels.insert(c.kernel);
    }
  }
  EXPECT_TRUE(safe_mode);
  EXPECT_TRUE(served_request);
  EXPECT_EQ(algorithms.size(), 7u);  // BF, NL, TR, SI, IN, LO, AUTO
  EXPECT_EQ(served_kernels,
            (std::set<core::KernelPolicy>{
                core::KernelPolicy::kScalar, core::KernelPolicy::kTiled,
                core::KernelPolicy::kSorted, core::KernelPolicy::kSweep2D}));
  EXPECT_GE(configs.size(), 40u);
}

// The tentpole run: 200 seeded adversarial datasets, every configuration,
// zero disagreements with the oracle. On failure the input is shrunk and
// printed as a ready-to-paste regression test.
TEST(DifferentialTest, TwoHundredSeededDatasetsAgreeWithOracle) {
  constexpr uint64_t kDatasets = 200;
  for (uint64_t run = 0; run < kDatasets; ++run) {
    const uint64_t seed = 0xd1fful + run * 0x9e3779b97f4a7c15ull;
    Rng rng(seed);
    PointGroups points = GenerateAdversarialPoints(rng);
    const double gamma = PickAdversarialGamma(rng);
    core::GroupedDataset dataset = PointsToDataset(points);
    Divergence divergence = CheckDataset(dataset, gamma);
    if (divergence.found) {
      Reproducer repro = Shrink(points, gamma, divergence.config);
      FAIL() << "divergence at dataset seed " << seed << ", gamma " << gamma
             << ", config " << divergence.config.Name() << ": "
             << divergence.detail << "\n"
             << ReproducerToCpp(repro);
    }
  }
}

TEST(DifferentialTest, OracleMatchesBruteForceOnGeneratedData) {
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    core::GroupedDataset dataset = GenerateAdversarialDataset(rng);
    const double gamma = PickAdversarialGamma(rng);
    OracleResult oracle =
        ComputeOracle(dataset, core::GammaThresholds::FromGamma(gamma));
    core::AggregateSkylineOptions options;
    options.gamma = gamma;
    options.algorithm = core::Algorithm::kBruteForce;
    core::AggregateSkylineResult result =
        core::ComputeAggregateSkyline(dataset, options);
    EXPECT_EQ(result.dominated, oracle.dominated) << "iteration " << i;
    EXPECT_EQ(result.strongly_dominated, oracle.strongly_dominated)
        << "iteration " << i;
    EXPECT_EQ(result.skyline, oracle.skyline) << "iteration " << i;
  }
}

TEST(EmptyGroupTest, ProbabilityAndDominanceAreDefinedWithoutNan) {
  core::GroupedDataset dataset = core::GroupedDataset::FromPoints({
      {{0.5, 0.5}},
      {},
      {{1.0, 1.0}, {0.0, 0.0}},
  });
  const core::Group& full = dataset.group(0);
  const core::Group& empty = dataset.group(1);
  ASSERT_EQ(empty.size(), 0u);

  // 0/0 division guard: the probability is 0 by convention, never NaN.
  EXPECT_EQ(core::DominationProbability(full, empty), 0.0);
  EXPECT_EQ(core::DominationProbability(empty, full), 0.0);
  EXPECT_EQ(core::DominationProbability(empty, empty), 0.0);
  EXPECT_FALSE(std::isnan(core::DominationProbability(empty, full)));

  // An empty group neither dominates nor is dominated, at any gamma.
  for (double gamma : {0.5, 0.75, 1.0}) {
    EXPECT_FALSE(core::GammaDominates(full, empty, gamma));
    EXPECT_FALSE(core::GammaDominates(empty, full, gamma));
    core::GammaThresholds thresholds = core::GammaThresholds::FromGamma(gamma);
    for (bool mbb : {false, true}) {
      for (bool stop : {false, true}) {
        core::PairCompareOptions options;
        options.use_mbb = mbb;
        options.use_stop_rule = stop;
        EXPECT_EQ(core::ClassifyPair(full, empty, thresholds, options),
                  core::PairOutcome::kIncomparable);
        EXPECT_EQ(core::ClassifyPair(empty, full, thresholds, options),
                  core::PairOutcome::kIncomparable);
        EXPECT_EQ(core::ClassifyPair(empty, empty, thresholds, options),
                  core::PairOutcome::kIncomparable);
      }
    }
  }
}

TEST(EmptyGroupTest, EmptyGroupSurvivesEveryConfiguration) {
  core::GroupedDataset dataset = core::GroupedDataset::FromPoints({
      {{1.0, 1.0}},
      {},
      {{0.2, 0.2}, {0.1, 0.1}},
  });
  OracleResult oracle =
      ComputeOracle(dataset, core::GammaThresholds::FromGamma(0.5));
  EXPECT_EQ(oracle.dominated[1], 0);  // vacuously in the skyline
  EXPECT_EQ(oracle.dominated[2], 1);  // group 0 dominates every record
  for (const DifferentialConfig& config : AllConfigurations()) {
    core::AggregateSkylineResult result =
        RunConfiguration(dataset, 0.5, config);
    EXPECT_EQ(result.dominated[1], 0) << config.Name();
    EXPECT_EQ(result.strongly_dominated[1], 0) << config.Name();
    EXPECT_EQ(CheckResult(dataset, 0.5, config, oracle, result), "")
        << config.Name();
  }
}

TEST(EmptyGroupTest, DatasetsWithManyEmptyGroupsRoundTrip) {
  // Heavier empty-group pressure than the default generator mix.
  core::GroupedDataset dataset = core::GroupedDataset::FromPoints({
      {},
      {},
      {{0.75}},
      {},
      {{0.5}, {0.25}},
  });
  Divergence divergence = CheckDataset(dataset, 0.75);
  EXPECT_FALSE(divergence.found)
      << divergence.config.Name() << ": " << divergence.detail;
}

TEST(ShrinkerTest, PassingInputReturnsUnshrunkWithEmptyDetail) {
  PointGroups points = {{{1.0, 0.0}}, {{0.0, 1.0}}};
  DifferentialConfig config;  // brute force: always consistent
  Reproducer repro = Shrink(points, 0.5, config);
  EXPECT_TRUE(repro.detail.empty());
  EXPECT_EQ(repro.groups, points);
}

TEST(ShrinkerTest, ReproducerRendersCompilableLookingCode) {
  Reproducer repro;
  repro.groups = {{{0.25, 0.5}}, {}};
  repro.gamma = 0.75;
  repro.config.algorithm = core::Algorithm::kTransitive;
  repro.config.use_mbb = true;
  repro.detail = "example disagreement";
  std::string code = ReproducerToCpp(repro);
  EXPECT_NE(code.find("GroupedDataset::FromPoints"), std::string::npos);
  EXPECT_NE(code.find("core::Algorithm::kTransitive"), std::string::npos);
  EXPECT_NE(code.find("config.use_mbb = true"), std::string::npos);
  EXPECT_NE(code.find("example disagreement"), std::string::npos);
  EXPECT_NE(code.find("RunAndCheck"), std::string::npos);
}

TEST(ShrinkerTest, ReproducerKeepsNonDefaultOrdering) {
  Reproducer repro;
  repro.groups = {{{0.25, 0.5}}, {{0.5, 0.25}}};
  repro.config.algorithm = core::Algorithm::kSorted;
  repro.config.ordering = core::GroupOrdering::kSmallestFirstThenCorner;
  std::string code = ReproducerToCpp(repro);
  EXPECT_NE(code.find("  config.ordering = "
                      "core::GroupOrdering::kSmallestFirstThenCorner;\n"),
            std::string::npos)
      << code;

  // The default ordering stays implicit.
  repro.config.ordering = core::GroupOrdering::kCornerDistance;
  EXPECT_EQ(ReproducerToCpp(repro).find("config.ordering"), std::string::npos);
}

}  // namespace
}  // namespace galaxy::testing
