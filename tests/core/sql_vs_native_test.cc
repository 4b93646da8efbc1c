// Equivalence of the paper's Algorithm 1 (direct SQL aggregate skyline,
// executed by the from-scratch SQL engine) and the native operator.

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/aggregate_skyline.h"
#include "datagen/groups.h"
#include "datagen/movies.h"
#include "sql/catalog.h"
#include "sql/skyline_query.h"

namespace galaxy::core {
namespace {

std::set<std::string> NativeSkylineLabels(const GroupedDataset& ds,
                                          double gamma) {
  AggregateSkylineOptions options;
  options.gamma = gamma;
  options.algorithm = Algorithm::kBruteForce;
  AggregateSkylineResult result = ComputeAggregateSkyline(ds, options);
  std::vector<std::string> labels = result.Labels(ds);
  return {labels.begin(), labels.end()};
}

std::set<std::string> SqlSkylineLabels(const Table& table, size_t dims,
                                       double gamma) {
  sql::Database db;
  db.Register("data", table);
  std::vector<std::string> attrs;
  for (size_t i = 0; i < dims; ++i) attrs.push_back("a" + std::to_string(i));
  std::string query =
      sql::BuildAggregateSkylineSql("data", "class", "num", attrs, gamma);
  auto result = db.Query(query);
  EXPECT_TRUE(result.ok()) << result.status();
  std::set<std::string> out;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    out.insert(result->at(r, 0).AsString());
  }
  return out;
}

struct SqlParam {
  size_t records;
  size_t per_group;
  size_t dims;
  double gamma;
  datagen::Distribution distribution;
  uint64_t seed;
};

std::string ParamName(const SqlParam& p) {
  return std::string(datagen::DistributionToString(p.distribution)) + "_d" +
         std::to_string(p.dims) + "_g" +
         std::to_string(std::lround(p.gamma * 100)) + "_s" +
         std::to_string(p.seed);
}

// Prints the parameter by its fields, not its bytes (which include
// struct padding), so test names are the same in every build.
void PrintTo(const SqlParam& p, std::ostream* os) { *os << ParamName(p); }

class SqlVsNativeTest : public ::testing::TestWithParam<SqlParam> {};

TEST_P(SqlVsNativeTest, SameSkyline) {
  const SqlParam& p = GetParam();
  datagen::GroupedWorkloadConfig config;
  config.num_records = p.records;
  config.avg_records_per_group = p.per_group;
  config.dims = p.dims;
  config.distribution = p.distribution;
  config.seed = p.seed;
  GroupedDataset ds = datagen::GenerateGrouped(config);
  Table table = datagen::GroupedDatasetToTable(ds);

  EXPECT_EQ(SqlSkylineLabels(table, p.dims, p.gamma),
            NativeSkylineLabels(ds, p.gamma));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SqlVsNativeTest,
    ::testing::Values(
        SqlParam{120, 10, 2, 0.5, datagen::Distribution::kAntiCorrelated, 1},
        SqlParam{120, 10, 2, 0.5, datagen::Distribution::kIndependent, 2},
        SqlParam{120, 10, 2, 0.5, datagen::Distribution::kCorrelated, 3},
        SqlParam{150, 15, 3, 0.5, datagen::Distribution::kAntiCorrelated, 4},
        SqlParam{150, 15, 3, 0.7, datagen::Distribution::kAntiCorrelated, 5},
        SqlParam{100, 5, 2, 0.9, datagen::Distribution::kIndependent, 6},
        SqlParam{200, 50, 4, 0.5, datagen::Distribution::kIndependent, 7}),
    [](const ::testing::TestParamInfo<SqlParam>& param_info) {
      return ParamName(param_info.param);
    });

TEST(SqlVsNativeTest, MovieDirectorsThroughAlgorithm1) {
  // Run the Algorithm 1 query on the movie table (rebuilt into the
  // class/num layout) and compare with Figure 4(b).
  Table movies = datagen::MovieTable();
  GroupedDataset ds =
      GroupedDataset::FromTable(movies, {"Director"}, {"Pop", "Qual"}).value();
  Table data = datagen::GroupedDatasetToTable(ds);
  std::set<std::string> sql_result = SqlSkylineLabels(data, 2, 0.5);
  EXPECT_EQ(sql_result, (std::set<std::string>{"Coppola", "Jackson",
                                               "Kershner", "Tarantino"}));
}

TEST(SqlVsNativeTest, GeneratedQueryShape) {
  std::string sql = sql::BuildAggregateSkylineSql("movies", "director", "num",
                                                  {"votes", "rank"}, 0.5);
  // Spot-check the clauses of Algorithm 1.
  EXPECT_NE(sql.find("SELECT DISTINCT director FROM movies"),
            std::string::npos);
  EXPECT_NE(sql.find("NOT IN"), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY X.director, Y.director"), std::string::npos);
  EXPECT_NE(sql.find("HAVING 1.0 * COUNT(*) / (X.num * Y.num) > 0.5"),
            std::string::npos);
  EXPECT_NE(sql.find("Y.votes >= X.votes"), std::string::npos);
  EXPECT_NE(sql.find("Y.rank > X.rank"), std::string::npos);
}

TEST(SqlVsNativeTest, DominancePredicateGeneralizesToManyDims) {
  std::string pred =
      sql::BuildDominancePredicate({"a0", "a1", "a2"}, "Y", "X");
  EXPECT_EQ(pred,
            "(Y.a0 >= X.a0 AND Y.a1 >= X.a1 AND Y.a2 >= X.a2) AND "
            "(Y.a0 > X.a0 OR Y.a1 > X.a1 OR Y.a2 > X.a2)");
}

}  // namespace
}  // namespace galaxy::core
