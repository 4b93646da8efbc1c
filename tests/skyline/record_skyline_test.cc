#include "skyline/skyline.h"

#include <algorithm>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/distributions.h"
#include "datagen/movies.h"

namespace galaxy::skyline {
namespace {

// Exhaustive reference implementation.
std::vector<size_t> NaiveSkyline(const std::vector<std::vector<double>>& pts,
                                 const PreferenceList& prefs) {
  std::vector<size_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < pts.size() && !dominated; ++j) {
      if (j != i && Dominates(pts[j], pts[i], prefs)) dominated = true;
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

TEST(RecordSkylineTest, Figure2MovieSkyline) {
  // Example 1: SELECT * FROM Movie SKYLINE OF Pop MAX, Qual MAX
  // returns Pulp Fiction and The Godfather.
  Table movies = datagen::MovieTable();
  auto result = ComputeOnTable(movies, {"Pop", "Qual"}, AllMax(2));
  ASSERT_TRUE(result.ok());
  std::vector<std::string> titles;
  for (size_t row : *result) {
    titles.push_back(movies.at(row, "Title").value().AsString());
  }
  EXPECT_EQ(titles,
            (std::vector<std::string>{"Pulp Fiction", "The Godfather"}));
}

TEST(RecordSkylineTest, EmptyInput) {
  EXPECT_TRUE(Compute({}, AllMax(2)).empty());
}

TEST(RecordSkylineTest, SinglePoint) {
  std::vector<std::vector<double>> pts = {{1, 2}};
  EXPECT_EQ(Compute(pts, AllMax(2)), (std::vector<size_t>{0}));
}

TEST(RecordSkylineTest, DuplicatePointsAllSurvive) {
  std::vector<std::vector<double>> pts = {{1, 1}, {1, 1}, {0, 0}};
  EXPECT_EQ(Compute(pts, AllMax(2)), (std::vector<size_t>{0, 1}));
}

TEST(RecordSkylineTest, TotalOrderChainLeavesOnlyTop) {
  std::vector<std::vector<double>> pts = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  EXPECT_EQ(Compute(pts, AllMax(2)), (std::vector<size_t>{3}));
}

TEST(RecordSkylineTest, AntiChainKeepsEverything) {
  std::vector<std::vector<double>> pts = {{1, 4}, {2, 3}, {3, 2}, {4, 1}};
  EXPECT_EQ(Compute(pts, AllMax(2)), (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(RecordSkylineTest, MinPreferences) {
  std::vector<std::vector<double>> pts = {{1, 1}, {2, 2}, {0.5, 3}};
  PreferenceList prefs = {Preference::kMin, Preference::kMin};
  EXPECT_EQ(Compute(pts, prefs), (std::vector<size_t>{0, 2}));
}

struct SkylineParam {
  datagen::Distribution distribution;
  size_t dims;
  size_t count;
};

std::string ParamName(const SkylineParam& p) {
  return std::string(datagen::DistributionToString(p.distribution)) + "_d" +
         std::to_string(p.dims) + "_n" + std::to_string(p.count);
}

// Prints the parameter by its fields, not its bytes (which include
// struct padding), so test names are the same in every build.
void PrintTo(const SkylineParam& p, std::ostream* os) { *os << ParamName(p); }

class SkylineAgreementTest : public ::testing::TestWithParam<SkylineParam> {};

TEST_P(SkylineAgreementTest, SfsAgreesWithNaive) {
  const SkylineParam& p = GetParam();
  Rng rng(static_cast<uint64_t>(p.dims * 1000 + p.count));
  auto pts = datagen::SamplePoints(p.distribution, p.dims, p.count, rng);
  PreferenceList prefs = AllMax(p.dims);
  EXPECT_EQ(Compute(pts, prefs), NaiveSkyline(pts, prefs));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SkylineAgreementTest,
    ::testing::Values(
        SkylineParam{datagen::Distribution::kIndependent, 2, 300},
        SkylineParam{datagen::Distribution::kIndependent, 4, 300},
        SkylineParam{datagen::Distribution::kIndependent, 6, 200},
        SkylineParam{datagen::Distribution::kCorrelated, 3, 300},
        SkylineParam{datagen::Distribution::kCorrelated, 5, 200},
        SkylineParam{datagen::Distribution::kAntiCorrelated, 2, 300},
        SkylineParam{datagen::Distribution::kAntiCorrelated, 4, 200},
        SkylineParam{datagen::Distribution::kAntiCorrelated, 6, 150}),
    [](const ::testing::TestParamInfo<SkylineParam>& param_info) {
      return ParamName(param_info.param);
    });

TEST(RecordSkylineTest, AntiCorrelatedSkylineLargerThanCorrelated) {
  Rng rng1(5), rng2(5);
  auto anti = datagen::SamplePoints(datagen::Distribution::kAntiCorrelated, 4,
                                    2000, rng1);
  auto corr = datagen::SamplePoints(datagen::Distribution::kCorrelated, 4,
                                    2000, rng2);
  size_t anti_size = Compute(anti, AllMax(4)).size();
  size_t corr_size = Compute(corr, AllMax(4)).size();
  EXPECT_GT(anti_size, corr_size * 2);
}

TEST(RecordSkylineTest, SfsHandlesDimensionTies) {
  // Every point shares attribute 0, so it never breaks a tie.
  std::vector<std::vector<double>> pts;
  Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    pts.push_back({0.5, rng.NextDouble(), rng.NextDouble()});
  }
  PreferenceList prefs = AllMax(3);
  EXPECT_EQ(Compute(pts, prefs), NaiveSkyline(pts, prefs));
}

TEST(RecordSkylineTest, SfsManyDuplicatePoints) {
  // Three distinct points, each repeated; all share one presort score.
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({static_cast<double>(i % 3), static_cast<double>(2 - i % 3)});
  }
  PreferenceList prefs = AllMax(2);
  EXPECT_EQ(Compute(pts, prefs), NaiveSkyline(pts, prefs));
}

TEST(RecordSkylineTest, SfsWithMixedMinMaxPreferences) {
  Rng rng(33);
  auto pts = datagen::SamplePoints(datagen::Distribution::kIndependent, 3,
                                   500, rng);
  PreferenceList prefs = {Preference::kMin, Preference::kMax,
                          Preference::kMin};
  EXPECT_EQ(Compute(pts, prefs), NaiveSkyline(pts, prefs));
}

TEST(RecordSkylineTest, ComputeOnTableValidatesArity) {
  Table movies = datagen::MovieTable();
  EXPECT_FALSE(ComputeOnTable(movies, {"Pop"}, AllMax(2)).ok());
  EXPECT_FALSE(ComputeOnTable(movies, {"Title", "Pop"}, AllMax(2)).ok());
}

}  // namespace
}  // namespace galaxy::skyline
