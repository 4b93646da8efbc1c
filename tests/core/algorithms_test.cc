#include "core/aggregate_skyline.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/gamma.h"
#include "datagen/groups.h"
#include "datagen/movies.h"
#include "testing/oracle.h"

namespace galaxy::core {
namespace {

// True exact aggregate skyline per Definition 2, computed from first
// principles (independent of the library's algorithm plumbing).
std::set<uint32_t> ReferenceSkyline(const GroupedDataset& ds, double gamma) {
  std::set<uint32_t> out;
  for (uint32_t i = 0; i < ds.num_groups(); ++i) {
    bool dominated = false;
    for (uint32_t j = 0; j < ds.num_groups() && !dominated; ++j) {
      if (j != i && GammaDominates(ds.group(j), ds.group(i), gamma)) {
        dominated = true;
      }
    }
    if (!dominated) out.insert(i);
  }
  return out;
}

std::set<uint32_t> AsSet(const std::vector<uint32_t>& v) {
  return {v.begin(), v.end()};
}

struct WorkloadParam {
  datagen::Distribution distribution;
  size_t records;
  size_t per_group;
  size_t dims;
  double spread;
  double gamma;
  uint64_t seed;
};

std::string ParamName(const WorkloadParam& p) {
  return std::string(datagen::DistributionToString(p.distribution)) + "_d" +
         std::to_string(p.dims) + "_g" +
         std::to_string(std::lround(p.gamma * 100)) + "_s" +
         std::to_string(p.seed);
}

// Prints the parameter by its fields, not its bytes (which include
// struct padding), so test names are the same in every build.
void PrintTo(const WorkloadParam& p, std::ostream* os) { *os << ParamName(p); }

class AlgorithmAgreementTest : public ::testing::TestWithParam<WorkloadParam> {
 protected:
  GroupedDataset Generate() const {
    const WorkloadParam& p = GetParam();
    datagen::GroupedWorkloadConfig config;
    config.num_records = p.records;
    config.avg_records_per_group = p.per_group;
    config.dims = p.dims;
    config.distribution = p.distribution;
    config.spread = p.spread;
    config.seed = p.seed;
    return datagen::GenerateGrouped(config);
  }
};

TEST_P(AlgorithmAgreementTest, BruteForceAndNestedLoopAreExact) {
  GroupedDataset ds = Generate();
  std::set<uint32_t> expected = ReferenceSkyline(ds, GetParam().gamma);

  for (Algorithm algo : {Algorithm::kBruteForce, Algorithm::kNestedLoop}) {
    AggregateSkylineOptions options;
    options.gamma = GetParam().gamma;
    options.algorithm = algo;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    EXPECT_EQ(AsSet(result.skyline), expected)
        << "algorithm " << AlgorithmToString(algo);
  }
}

TEST_P(AlgorithmAgreementTest, SafeModeMakesAllAlgorithmsExact) {
  GroupedDataset ds = Generate();
  std::set<uint32_t> expected = ReferenceSkyline(ds, GetParam().gamma);

  for (Algorithm algo : {Algorithm::kTransitive, Algorithm::kSorted,
                         Algorithm::kIndexed, Algorithm::kIndexedBbox}) {
    AggregateSkylineOptions options;
    options.gamma = GetParam().gamma;
    options.algorithm = algo;
    options.prune_strongly_dominated = false;  // disable the only lossy step
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    EXPECT_EQ(AsSet(result.skyline), expected)
        << "algorithm " << AlgorithmToString(algo);
  }
}

// The paper's TR/SI/IN/LO skip strongly-dominated groups entirely. Weak
// transitivity only collapses γ̄-γ̄ chains, so the pruned algorithms may
// return a SUPERSET of the exact skyline (see DESIGN.md). This test pins
// down that containment plus the exactness of everything they exclude.
TEST_P(AlgorithmAgreementTest, PrunedAlgorithmsReturnSupersetOnly) {
  GroupedDataset ds = Generate();
  std::set<uint32_t> expected = ReferenceSkyline(ds, GetParam().gamma);

  for (Algorithm algo : {Algorithm::kTransitive, Algorithm::kSorted,
                         Algorithm::kIndexed, Algorithm::kIndexedBbox}) {
    AggregateSkylineOptions options;
    options.gamma = GetParam().gamma;
    options.algorithm = algo;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    std::set<uint32_t> got = AsSet(result.skyline);
    // Everything in the exact skyline must be present (no false exclusion).
    for (uint32_t id : expected) {
      EXPECT_TRUE(got.count(id) > 0)
          << "algorithm " << AlgorithmToString(algo)
          << " wrongly excluded group " << id;
    }
    // Any extra group must indeed be gamma-dominated by some group (i.e.,
    // the discrepancy is the documented weak-transitivity gap, not a bug).
    for (uint32_t id : got) {
      if (expected.count(id) == 0) {
        bool dominated = false;
        for (uint32_t j = 0; j < ds.num_groups(); ++j) {
          if (j != id &&
              GammaDominates(ds.group(j), ds.group(id), GetParam().gamma)) {
            dominated = true;
            break;
          }
        }
        EXPECT_TRUE(dominated);
      }
    }
  }
}

TEST_P(AlgorithmAgreementTest, StatsArePopulated) {
  GroupedDataset ds = Generate();
  AggregateSkylineOptions options;
  options.gamma = GetParam().gamma;
  options.algorithm = Algorithm::kIndexed;
  AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
  EXPECT_GT(result.stats.group_pairs_classified, 0u);
  EXPECT_GE(result.stats.wall_seconds, 0.0);
  EXPECT_FALSE(result.stats.ToString().empty());
}

// kAuto as GROUP BY … SKYLINE OF requests it (pruning left at its default)
// runs safe-mode IN: the Definition-3 oracle's exact marks on every shape.
TEST_P(AlgorithmAgreementTest, AutoRunsSafeModeIndexedWithOracleMarks) {
  GroupedDataset ds = Generate();
  const testing::OracleResult oracle = testing::ComputeOracle(
      ds, GammaThresholds::FromGamma(GetParam().gamma));

  AggregateSkylineOptions options;
  options.gamma = GetParam().gamma;
  options.algorithm = Algorithm::kAuto;
  ASSERT_TRUE(options.prune_strongly_dominated);
  AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
  EXPECT_EQ(result.algorithm_used, Algorithm::kIndexed);
  EXPECT_EQ(result.skyline, oracle.skyline);
  EXPECT_EQ(result.dominated, oracle.dominated);
  EXPECT_EQ(result.strongly_dominated, oracle.strongly_dominated);
  EXPECT_EQ(AsSet(result.skyline), ReferenceSkyline(ds, GetParam().gamma));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AlgorithmAgreementTest,
    ::testing::Values(
        WorkloadParam{datagen::Distribution::kAntiCorrelated, 600, 20, 2, 0.2,
                      0.5, 1},
        WorkloadParam{datagen::Distribution::kAntiCorrelated, 600, 20, 4, 0.2,
                      0.5, 2},
        WorkloadParam{datagen::Distribution::kAntiCorrelated, 600, 20, 3, 0.5,
                      0.7, 3},
        WorkloadParam{datagen::Distribution::kIndependent, 600, 20, 3, 0.2,
                      0.5, 4},
        WorkloadParam{datagen::Distribution::kIndependent, 600, 30, 5, 0.8,
                      0.6, 5},
        WorkloadParam{datagen::Distribution::kCorrelated, 600, 20, 3, 0.2,
                      0.5, 6},
        WorkloadParam{datagen::Distribution::kCorrelated, 400, 10, 2, 0.4,
                      0.9, 7},
        WorkloadParam{datagen::Distribution::kAntiCorrelated, 500, 5, 3, 0.3,
                      0.5, 8},
        WorkloadParam{datagen::Distribution::kIndependent, 300, 100, 4, 0.2,
                      0.5, 9}),
    [](const ::testing::TestParamInfo<WorkloadParam>& param_info) {
      return ParamName(param_info.param);
    });

TEST(AlgorithmsTest, SingleGroupIsAlwaysInSkyline) {
  GroupedDataset ds = GroupedDataset::FromPoints({{{1, 1}, {2, 2}}});
  for (Algorithm algo :
       {Algorithm::kBruteForce, Algorithm::kNestedLoop, Algorithm::kTransitive,
        Algorithm::kSorted, Algorithm::kIndexed, Algorithm::kIndexedBbox}) {
    AggregateSkylineOptions options;
    options.algorithm = algo;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    EXPECT_EQ(result.skyline, (std::vector<uint32_t>{0}));
  }
}

TEST(AlgorithmsTest, GammaOneKeepsAllButStrictlyDominated) {
  // With gamma = 1, only p = 1 (strict) domination excludes a group.
  GroupedDataset ds = GroupedDataset::FromPoints(
      {{{5, 5}, {6, 6}},       // A
       {{1, 1}},               // B: strictly dominated by A
       {{4, 7}, {0.5, 0.5}}},  // C: partially dominated by A (p < 1)
      {"A", "B", "C"});
  AggregateSkylineOptions options;
  options.gamma = 1.0;
  options.algorithm = Algorithm::kBruteForce;
  AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
  EXPECT_EQ(AsSet(result.skyline), (std::set<uint32_t>{0, 2}));
}

TEST(AlgorithmsTest, ResultSizeShrinksAsGammaDrops) {
  // gamma = .5 is the most selective setting (Section 2.2): lowering the
  // threshold towards .5 can only add dominances.
  datagen::GroupedWorkloadConfig config;
  config.num_records = 800;
  config.avg_records_per_group = 20;
  config.dims = 3;
  config.seed = 77;
  GroupedDataset ds = datagen::GenerateGrouped(config);
  size_t previous = 0;
  bool first = true;
  for (double gamma : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    AggregateSkylineOptions options;
    options.gamma = gamma;
    options.algorithm = Algorithm::kBruteForce;
    size_t size = ComputeAggregateSkyline(ds, options).skyline.size();
    if (!first) {
      EXPECT_GE(size, previous) << "gamma " << gamma;
    }
    previous = size;
    first = false;
  }
}

TEST(AlgorithmsTest, MovieExampleAllAlgorithmsAgree) {
  Table movies = datagen::MovieTable();
  GroupedDataset ds =
      GroupedDataset::FromTable(movies, {"Director"}, {"Pop", "Qual"}).value();
  std::set<uint32_t> expected = ReferenceSkyline(ds, 0.5);
  for (Algorithm algo :
       {Algorithm::kBruteForce, Algorithm::kNestedLoop, Algorithm::kTransitive,
        Algorithm::kSorted, Algorithm::kIndexed, Algorithm::kIndexedBbox}) {
    AggregateSkylineOptions options;
    options.algorithm = algo;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    EXPECT_EQ(AsSet(result.skyline), expected)
        << "algorithm " << AlgorithmToString(algo);
  }
}

TEST(AlgorithmsTest, OrderingVariantsPreserveSupersetGuarantee) {
  datagen::GroupedWorkloadConfig config;
  config.num_records = 1000;
  config.avg_records_per_group = 25;
  config.size_model = datagen::GroupSizeModel::kZipf;
  config.seed = 31;
  GroupedDataset ds = datagen::GenerateGrouped(config);
  std::set<uint32_t> expected = ReferenceSkyline(ds, 0.5);
  for (GroupOrdering ordering :
       {GroupOrdering::kCornerDistance, GroupOrdering::kSmallestFirst,
        GroupOrdering::kSmallestFirstThenCorner}) {
    AggregateSkylineOptions options;
    options.algorithm = Algorithm::kSorted;
    options.ordering = ordering;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    for (uint32_t id : expected) {
      EXPECT_TRUE(result.Contains(id))
          << GroupOrderingToString(ordering) << " excluded " << id;
    }
  }
}

TEST(AlgorithmsTest, LabelsHelper) {
  GroupedDataset ds = GroupedDataset::FromPoints(
      {{{5, 5}}, {{1, 1}}, {{6, 4}}}, {"A", "B", "C"});
  AggregateSkylineOptions options;
  options.algorithm = Algorithm::kBruteForce;
  AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
  EXPECT_EQ(result.Labels(ds), (std::vector<std::string>{"A", "C"}));
  EXPECT_TRUE(result.Contains(0));
  EXPECT_FALSE(result.Contains(1));
}

// DESIGN.md erratum 3: R strongly dominates S, S strongly dominates T, and
// R does not γ-dominate T, so T's only γ-dominator is itself strongly
// dominated. Skipping S as a candidate loses T's marks; safe mode keeps
// IN's probe exit (S's probe stops at R) yet must still mark T.
TEST(SafeModeIndexedTest, WeakTransitivityGapMatchesOracleMarks) {
  GroupedDataset ds = GroupedDataset::FromPoints(
      {{{0.8729, 0.4750}, {0.9814, 0.9968}},
       {{0.6496, 0.7461}, {0.0303, 0.1665}, {0.5199, 0.6789}},
       {{0.0820, 0.6372}}},
      {"R", "S", "T"});
  const testing::OracleResult oracle =
      testing::ComputeOracle(ds, GammaThresholds::FromGamma(0.5));
  ASSERT_EQ(oracle.skyline, (std::vector<uint32_t>{0}));
  ASSERT_EQ(oracle.strongly_dominated, (std::vector<uint8_t>{0, 1, 1}));

  // Paper-mode IN skips S as T's candidate and wrongly keeps T.
  AggregateSkylineOptions paper;
  paper.algorithm = Algorithm::kIndexed;
  ASSERT_EQ(ComputeAggregateSkyline(ds, paper).skyline,
            (std::vector<uint32_t>{0, 2}));

  for (Algorithm algo : {Algorithm::kIndexed, Algorithm::kIndexedBbox}) {
    for (GroupOrdering ordering :
         {GroupOrdering::kCornerDistance, GroupOrdering::kSmallestFirst,
          GroupOrdering::kSmallestFirstThenCorner}) {
      AggregateSkylineOptions options;
      options.algorithm = algo;
      options.ordering = ordering;
      options.prune_strongly_dominated = false;
      AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
      const std::string where = std::string(AlgorithmToString(algo)) + " " +
                                GroupOrderingToString(ordering);
      EXPECT_EQ(result.skyline, oracle.skyline) << where;
      EXPECT_EQ(result.dominated, oracle.dominated) << where;
      EXPECT_EQ(result.strongly_dominated, oracle.strongly_dominated)
          << where;
    }
  }
}

// kAuto is the served configuration: safe-mode IN, exact even though the
// caller leaves prune_strongly_dominated at its default (true).
TEST(AutoAlgorithmTest, ResolvesToSafeModeIndexedAndMatchesReference) {
  for (double spread : {0.1, 0.8}) {
    datagen::GroupedWorkloadConfig config;
    config.num_records = 2000;
    config.avg_records_per_group = 40;
    config.dims = 4;
    config.spread = spread;
    config.seed = 55;
    GroupedDataset ds = datagen::GenerateGrouped(config);

    AggregateSkylineOptions options;
    options.algorithm = Algorithm::kAuto;
    ASSERT_TRUE(options.prune_strongly_dominated);
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    EXPECT_EQ(result.algorithm_used, Algorithm::kIndexed);
    EXPECT_EQ(AsSet(result.skyline), ReferenceSkyline(ds, 0.5))
        << "spread " << spread;
  }
}

// Skewed group sizes once made the planner switch to smallest-first
// ordering; kAuto now keeps the caller's ordering and stays exact under
// each of them.
TEST(AutoAlgorithmTest, SkewedGroupSizesStayExactUnderEveryOrdering) {
  datagen::GroupedWorkloadConfig config;
  config.num_records = 2000;
  config.avg_records_per_group = 40;
  config.dims = 4;
  config.size_model = datagen::GroupSizeModel::kZipf;
  config.zipf_theta = 1.2;
  config.seed = 55;
  GroupedDataset ds = datagen::GenerateGrouped(config);
  const testing::OracleResult oracle =
      testing::ComputeOracle(ds, GammaThresholds::FromGamma(0.5));

  for (GroupOrdering ordering :
       {GroupOrdering::kCornerDistance, GroupOrdering::kSmallestFirst,
        GroupOrdering::kSmallestFirstThenCorner}) {
    AggregateSkylineOptions options;
    options.algorithm = Algorithm::kAuto;
    options.ordering = ordering;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    const char* where = GroupOrderingToString(ordering);
    EXPECT_EQ(result.algorithm_used, Algorithm::kIndexed) << where;
    EXPECT_EQ(result.skyline, oracle.skyline) << where;
    EXPECT_EQ(result.dominated, oracle.dominated) << where;
    EXPECT_EQ(result.strongly_dominated, oracle.strongly_dominated) << where;
  }
}

// Safe-mode IN must prune, not fall back to exhaustive probing: on a fixed
// anti-correlated d = 4 dataset it classifies strictly fewer pairs than NL
// and skips pairs already classified from the other side.
TEST(SafeModeIndexedTest, ClassifiesFewerPairsThanNestedLoop) {
  datagen::GroupedWorkloadConfig config;
  config.num_records = 4000;
  config.avg_records_per_group = 50;
  config.dims = 4;
  config.distribution = datagen::Distribution::kAntiCorrelated;
  config.seed = 2013;
  GroupedDataset ds = datagen::GenerateGrouped(config);

  AggregateSkylineOptions nl_options;
  nl_options.algorithm = Algorithm::kNestedLoop;
  AggregateSkylineResult nl = ComputeAggregateSkyline(ds, nl_options);

  AggregateSkylineOptions in_options;
  in_options.algorithm = Algorithm::kIndexed;
  in_options.prune_strongly_dominated = false;
  AggregateSkylineResult in = ComputeAggregateSkyline(ds, in_options);

  EXPECT_EQ(in.skyline, nl.skyline);
  EXPECT_EQ(in.dominated, nl.dominated);
  EXPECT_LT(in.stats.group_pairs_classified, nl.stats.group_pairs_classified);
  EXPECT_GT(in.stats.pairs_skipped_dedup, 0u);
}

}  // namespace
}  // namespace galaxy::core
