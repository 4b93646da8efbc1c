// The configuration GROUP BY … SKYLINE OF serves — Algorithm::kAuto, which
// runs safe-mode IN (kIndexed with prune_strongly_dominated = false) — at
// d = 2..6, on both sides of ClassifyPair's kernel rule (tiles at d <= 4,
// the sorted kernel for larger residuals at d >= 5): the dominated and
// strongly-dominated marks must equal the Definition-3 oracle's on every
// workload shape, and the control plane must stop it cleanly mid-run.

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_skyline.h"
#include "core/exec_context.h"
#include "core/gamma.h"
#include "datagen/groups.h"
#include "datagen/movies.h"
#include "testing/differential.h"
#include "testing/fault_injection.h"
#include "testing/oracle.h"

namespace galaxy::testing {
namespace {

DifferentialConfig ServedConfig() {
  DifferentialConfig config;
  config.algorithm = core::Algorithm::kAuto;
  return config;
}

core::GroupedDataset Workload(datagen::Distribution distribution, size_t dims,
                              uint64_t seed) {
  datagen::GroupedWorkloadConfig config;
  config.num_records = 1200;
  config.avg_records_per_group = 30;
  config.dims = dims;
  config.distribution = distribution;
  config.seed = seed;
  return datagen::GenerateGrouped(config);
}

// Zipf-head group sizes: a few giant groups whose pairs dominate the
// counting work, next to many small ones.
core::GroupedDataset SkewedWorkload(size_t dims, uint64_t seed) {
  datagen::GroupedWorkloadConfig config;
  config.num_records = 4000;
  config.avg_records_per_group = 100;
  config.dims = dims;
  config.size_model = datagen::GroupSizeModel::kZipf;
  config.zipf_theta = 1.2;
  config.seed = seed;
  return datagen::GenerateGrouped(config);
}

std::string Check(const core::GroupedDataset& ds, double gamma,
                  const DifferentialConfig& config) {
  OracleResult oracle =
      ComputeOracle(ds, core::GammaThresholds::FromGamma(gamma));
  return RunAndCheck(ds, gamma, config, oracle);
}

// Parameterized by dimensionality: d = 2..4 tiles every scan, d = 5 and 6
// run the sorted kernel on each uncharged stop-rule pair of >= 256
// residual record pairs (groups of about 30 records give about 900).
class ServedConfigKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServedConfigKernelTest, MatchesOracleAcrossGammas) {
  core::GroupedDataset ds =
      Workload(datagen::Distribution::kAntiCorrelated, GetParam(), 12);
  for (double gamma : {0.5, 0.75, 0.9, 1.0}) {
    EXPECT_EQ(Check(ds, gamma, ServedConfig()), "") << "gamma " << gamma;
  }
}

TEST_P(ServedConfigKernelTest, MatchesOracleAcrossDistributions) {
  for (datagen::Distribution distribution :
       {datagen::Distribution::kAntiCorrelated,
        datagen::Distribution::kIndependent,
        datagen::Distribution::kCorrelated}) {
    core::GroupedDataset ds = Workload(distribution, GetParam(), 21);
    EXPECT_EQ(Check(ds, 0.5, ServedConfig()), "")
        << datagen::DistributionToString(distribution);
  }
}

TEST_P(ServedConfigKernelTest, MatchesOracleOnSkewedGroupSizes) {
  core::GroupedDataset ds = SkewedWorkload(GetParam(), 77);
  EXPECT_EQ(Check(ds, 0.5, ServedConfig()), "");
}

TEST_P(ServedConfigKernelTest, OptionVariantsMatchOracle) {
  core::GroupedDataset ds =
      Workload(datagen::Distribution::kIndependent, GetParam(), 13);
  OracleResult oracle =
      ComputeOracle(ds, core::GammaThresholds::FromGamma(0.5));
  for (bool mbb : {false, true}) {
    for (bool stop : {false, true}) {
      for (core::GroupOrdering ordering :
           {core::GroupOrdering::kCornerDistance,
            core::GroupOrdering::kSmallestFirst,
            core::GroupOrdering::kSmallestFirstThenCorner}) {
        DifferentialConfig config = ServedConfig();
        config.use_mbb = mbb;
        config.use_stop_rule = stop;
        config.ordering = ordering;
        EXPECT_EQ(RunAndCheck(ds, 0.5, config, oracle), "") << config.Name();
      }
    }
  }
}

TEST(ServedConfigTest, MovieExample) {
  core::GroupedDataset ds =
      core::GroupedDataset::FromTable(datagen::MovieTable(), {"Director"},
                                      {"Pop", "Qual"})
          .value();
  core::AggregateSkylineResult result =
      RunConfiguration(ds, 0.5, ServedConfig());
  std::set<std::string> labels;
  for (uint32_t id : result.skyline) labels.insert(ds.group(id).label());
  EXPECT_EQ(labels, (std::set<std::string>{"Coppola", "Jackson", "Kershner",
                                           "Tarantino"}));
}

TEST_P(ServedConfigKernelTest, SingleGroupIsTheSkyline) {
  core::GroupedDataset ds =
      core::GroupedDataset::FromPoints({{Point(GetParam(), 1.0)}});
  core::AggregateSkylineResult result =
      RunConfiguration(ds, 0.5, ServedConfig());
  EXPECT_EQ(result.skyline, (std::vector<uint32_t>{0}));
  EXPECT_EQ(result.stats.group_pairs_classified, 0u);
}

TEST_P(ServedConfigKernelTest, SurvivesMidRunCancellation) {
  // Every trigger lies well inside the run's total work, so each one fires.
  const double gamma = 0.5;
  core::GroupedDataset ds =
      Workload(datagen::Distribution::kAntiCorrelated, GetParam(), 105);
  OracleResult oracle =
      ComputeOracle(ds, core::GammaThresholds::FromGamma(gamma));
  FaultPlan plan;
  plan.kind = FaultKind::kCancel;
  plan.allow_approximate = true;
  for (uint64_t trigger : {1ull, 16ull, 64ull, 256ull, 1024ull}) {
    plan.trigger = trigger;
    FaultCheckOutcome outcome =
        RunFaultCheck(ds, gamma, ServedConfig(), oracle, plan);
    EXPECT_TRUE(outcome.ok) << "trigger " << trigger << ": " << outcome.detail;
    EXPECT_TRUE(outcome.tripped) << "trigger " << trigger;
  }
}

TEST_P(ServedConfigKernelTest, AbortedPairIsNotCounted) {
  // Two groups of 40 random records: their one classification scans 1600
  // record pairs without the stop rule, so a cancellation 300 comparisons
  // in cuts it short and it must not count as decided.
  Rng rng(201);
  std::vector<std::vector<Point>> groups(2);
  for (auto& group : groups) {
    for (int r = 0; r < 40; ++r) {
      Point p(GetParam());
      for (double& v : p) v = rng.NextDouble();
      group.push_back(std::move(p));
    }
  }
  core::GroupedDataset ds = core::GroupedDataset::FromPoints(groups);
  core::ExecutionContext ctx;
  ctx.InjectCancelAtComparison(300);
  core::AggregateSkylineOptions options;
  options.algorithm = core::Algorithm::kAuto;
  options.use_stop_rule = false;
  options.exec = &ctx;
  options.allow_approximate = true;  // stats survive degradation
  auto result = core::ComputeAggregateSkylineBounded(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(result.value().stats.group_pairs_classified, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, ServedConfigKernelTest, ::testing::Values(2, 3, 4, 5, 6),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return "d" + std::to_string(param_info.param);
    });

}  // namespace
}  // namespace galaxy::testing
