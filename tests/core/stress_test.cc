// Randomized cross-validation stress tests: every algorithm against the
// exhaustive reference over a grid of gammas, group-size models and
// overlap regimes. Complements algorithms_test.cc with broader, noisier
// coverage.

#include <cmath>
#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_skyline.h"
#include "core/gamma.h"
#include "datagen/groups.h"

namespace galaxy::core {
namespace {

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

struct StressParam {
  uint64_t seed;
  double gamma;
  double spread;
  bool zipf;
};

std::string ParamName(const StressParam& p) {
  return "g" + std::to_string(std::lround(p.gamma * 100)) + "_spread" +
         std::to_string(std::lround(p.spread * 100)) +
         (p.zipf ? "_zipf" : "_uniform") + "_s" + std::to_string(p.seed);
}

// Prints the parameter by its fields, not its bytes (which include
// struct padding), so test names are the same in every build.
void PrintTo(const StressParam& p, std::ostream* os) { *os << ParamName(p); }

std::string StressName(const ::testing::TestParamInfo<StressParam>& info) {
  return ParamName(info.param);
}

class StressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressTest, AllAlgorithmsCrossValidated) {
  const StressParam& p = GetParam();
  datagen::GroupedWorkloadConfig config;
  config.num_records = 400;
  config.avg_records_per_group = 8;  // many small groups: worst case for
                                     // group-level pruning, best coverage
  config.dims = 3;
  config.spread = p.spread;
  config.size_model = p.zipf ? datagen::GroupSizeModel::kZipf
                             : datagen::GroupSizeModel::kUniform;
  config.seed = p.seed;
  GroupedDataset ds = datagen::GenerateGrouped(config);
  std::set<uint32_t> exact = ReferenceSkyline(ds, p.gamma);

  for (Algorithm algo :
       {Algorithm::kBruteForce, Algorithm::kNestedLoop, Algorithm::kTransitive,
        Algorithm::kSorted, Algorithm::kIndexed, Algorithm::kIndexedBbox,
        Algorithm::kAuto}) {
    AggregateSkylineOptions options;
    options.gamma = p.gamma;
    options.algorithm = algo;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    std::set<uint32_t> got(result.skyline.begin(), result.skyline.end());

    if (algo == Algorithm::kBruteForce || algo == Algorithm::kNestedLoop) {
      EXPECT_EQ(got, exact) << AlgorithmToString(algo);
      continue;
    }
    // Pruned algorithms: exact-or-superset, and every surplus group must
    // be genuinely dominated (the weak-transitivity gap only).
    for (uint32_t id : exact) {
      EXPECT_TRUE(got.count(id) > 0)
          << AlgorithmToString(algo) << " wrongly excluded " << id;
    }
    for (uint32_t id : got) {
      if (exact.count(id) != 0) continue;
      bool dominated = false;
      for (uint32_t j = 0; j < ds.num_groups() && !dominated; ++j) {
        if (j != id && GammaDominates(ds.group(j), ds.group(id), p.gamma)) {
          dominated = true;
        }
      }
      EXPECT_TRUE(dominated) << AlgorithmToString(algo)
                             << " surplus group not explained " << id;
    }
  }
}

std::vector<StressParam> MakeStressGrid() {
  std::vector<StressParam> params;
  uint64_t seed = 1000;
  for (double gamma : {0.5, 0.75, 0.8, 1.0}) {
    for (double spread : {0.1, 0.5, 0.9}) {
      for (bool zipf : {false, true}) {
        params.push_back({seed++, gamma, spread, zipf});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Grid, StressTest,
                         ::testing::ValuesIn(MakeStressGrid()), StressName);

// The safe mode must be exact on every grid point, for every pruned
// algorithm.
class SafeModeStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(SafeModeStressTest, SafeModeIsExactEverywhere) {
  const StressParam& p = GetParam();
  datagen::GroupedWorkloadConfig config;
  config.num_records = 300;
  config.avg_records_per_group = 10;
  config.dims = 2;
  config.spread = p.spread;
  config.size_model = p.zipf ? datagen::GroupSizeModel::kZipf
                             : datagen::GroupSizeModel::kUniform;
  config.seed = p.seed + 5000;
  GroupedDataset ds = datagen::GenerateGrouped(config);
  std::set<uint32_t> exact = ReferenceSkyline(ds, p.gamma);
  for (Algorithm algo : {Algorithm::kTransitive, Algorithm::kSorted,
                         Algorithm::kIndexed, Algorithm::kIndexedBbox}) {
    AggregateSkylineOptions options;
    options.gamma = p.gamma;
    options.algorithm = algo;
    options.prune_strongly_dominated = false;
    AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
    std::set<uint32_t> got(result.skyline.begin(), result.skyline.end());
    EXPECT_EQ(got, exact) << AlgorithmToString(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SafeModeStressTest,
                         ::testing::ValuesIn(MakeStressGrid()), StressName);

}  // namespace
}  // namespace galaxy::core
