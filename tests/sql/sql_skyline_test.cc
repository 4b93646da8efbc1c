// Tests for the SKYLINE OF SQL extension (record skylines and aggregate
// skylines through the SQL front end).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/groups.h"
#include "datagen/movies.h"
#include "sql/catalog.h"
#include "testing/oracle.h"

namespace galaxy::sql {
namespace {

class SqlSkylineTest : public ::testing::Test {
 protected:
  void SetUp() override { db_.Register("Movie", datagen::MovieTable()); }

  Table Q(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : Table();
  }

  Database db_;
};

TEST_F(SqlSkylineTest, Example1RecordSkyline) {
  Table t = Q("SELECT * FROM Movie SKYLINE OF Pop MAX, Qual MAX");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, "Title").value(), Value("Pulp Fiction"));
  EXPECT_EQ(t.at(1, "Title").value(), Value("The Godfather"));
}

TEST_F(SqlSkylineTest, RecordSkylineWithMin) {
  // Prefer old, popular movies.
  Table t = Q("SELECT Title FROM Movie SKYLINE OF Year MIN, Pop MAX");
  // The Godfather (1972, 531) dominates everything older-and-less-popular;
  // Pulp Fiction (1994, 557) survives on popularity.
  std::set<std::string> titles;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    titles.insert(t.at(r, 0).AsString());
  }
  EXPECT_TRUE(titles.count("The Godfather") > 0);
  EXPECT_TRUE(titles.count("Pulp Fiction") > 0);
  EXPECT_EQ(titles.count("The Room"), 0u);
}

TEST_F(SqlSkylineTest, RecordSkylineComposesWithWhere) {
  // Restrict to the 2000s first: skyline of {Avatar, Batman Begins, Kill
  // Bill, LOTR, The Room}.
  Table t = Q("SELECT Title FROM Movie WHERE Year >= 2000 "
              "SKYLINE OF Pop MAX, Qual MAX ORDER BY Title");
  std::vector<std::string> titles;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    titles.push_back(t.at(r, 0).AsString());
  }
  // LOTR (518, 8.7) dominates the other 2000s movies except... Avatar
  // (404, 8.0) dominated, Batman Begins (371, 8.3) dominated, Kill Bill
  // (313, 8.2) dominated, The Room dominated.
  EXPECT_EQ(titles, (std::vector<std::string>{"The Lord of the Rings"}));
}

TEST_F(SqlSkylineTest, Example3AggregateSkyline) {
  Table t = Q("SELECT Director FROM Movie GROUP BY Director "
              "SKYLINE OF Pop MAX, Qual MAX ORDER BY Director");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(0, 0), Value("Coppola"));
  EXPECT_EQ(t.at(1, 0), Value("Jackson"));
  EXPECT_EQ(t.at(2, 0), Value("Kershner"));
  EXPECT_EQ(t.at(3, 0), Value("Tarantino"));
}

TEST_F(SqlSkylineTest, AggregateSkylineWithAggregateOutputs) {
  Table t = Q("SELECT Director, count(*) AS movies, max(Qual) FROM Movie "
              "GROUP BY Director SKYLINE OF Pop MAX, Qual MAX "
              "ORDER BY Director");
  ASSERT_EQ(t.num_rows(), 4u);
  // Tarantino has two movies.
  EXPECT_EQ(t.at(3, 0), Value("Tarantino"));
  EXPECT_EQ(t.at(3, 1), Value(2));
  EXPECT_EQ(t.at(3, 2), Value(9.0));
}

TEST_F(SqlSkylineTest, GammaParameterWidensResult) {
  Table at_half = Q("SELECT Director FROM Movie GROUP BY Director "
                    "SKYLINE OF Pop MAX, Qual MAX GAMMA 0.5");
  Table at_one = Q("SELECT Director FROM Movie GROUP BY Director "
                   "SKYLINE OF Pop MAX, Qual MAX GAMMA 1.0");
  EXPECT_GE(at_one.num_rows(), at_half.num_rows());
  // At gamma = 1 only strictly dominated groups drop out: Wiseau (beaten by
  // everyone), and Cameron + Nolan (each strictly dominated by Jackson's
  // single movie).
  EXPECT_EQ(at_one.num_rows(), 4u);
}

TEST_F(SqlSkylineTest, AggregateSkylineComposesWithHaving) {
  // HAVING filters groups before the skyline: dropping Coppola's
  // prerequisite (both movies) changes nothing for the others here, but
  // requiring count(*) >= 2 leaves only Cameron/Tarantino/Coppola, whose
  // aggregate skyline is Tarantino + Coppola (Cameron is not dominated by
  // either... verify against the native reference below).
  Table t = Q("SELECT Director FROM Movie GROUP BY Director "
              "HAVING count(*) >= 2 SKYLINE OF Pop MAX, Qual MAX "
              "ORDER BY Director");
  std::vector<std::string> directors;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    directors.push_back(t.at(r, 0).AsString());
  }
  // Among {Cameron, Tarantino, Coppola}: p(T ≻ Cameron) = 2/4 = .5 (not
  // dominated), p(C ≻ Cameron) = 2/4 = .5: all three survive.
  EXPECT_EQ(directors, (std::vector<std::string>{"Cameron", "Coppola",
                                                 "Tarantino"}));
}

TEST_F(SqlSkylineTest, GammaRankOrdersByMinimalGamma) {
  // Section 2.2's parameter-free mode: all gamma-admissible directors,
  // best (lowest minimal gamma) first; strictly dominated directors
  // (Cameron, Nolan, Wiseau — each strictly beaten) never appear.
  Table t = Q("SELECT Director FROM Movie GROUP BY Director "
              "SKYLINE OF Pop MAX, Qual MAX GAMMA RANK");
  ASSERT_EQ(t.num_rows(), 4u);
  std::set<std::string> names;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    names.insert(t.at(r, 0).AsString());
  }
  EXPECT_EQ(names, (std::set<std::string>{"Coppola", "Jackson", "Kershner",
                                          "Tarantino"}));
}

TEST_F(SqlSkylineTest, GammaRankParsesAndRoundTrips) {
  EXPECT_FALSE(db_.Query("SELECT Director FROM Movie GROUP BY Director "
                         "SKYLINE OF Pop MAX GAMMA nonsense")
                   .ok());
  // RANK without GROUP BY is meaningless.
  EXPECT_FALSE(
      db_.Query("SELECT * FROM Movie SKYLINE OF Pop MAX GAMMA RANK").ok());
}

TEST_F(SqlSkylineTest, SkylineOverEmptyInput) {
  Table t = Q("SELECT Title FROM Movie WHERE Pop > 10000 "
              "SKYLINE OF Pop MAX, Qual MAX");
  EXPECT_EQ(t.num_rows(), 0u);
  Table g = Q("SELECT Director FROM Movie WHERE Pop > 10000 "
              "GROUP BY Director SKYLINE OF Pop MAX, Qual MAX");
  EXPECT_EQ(g.num_rows(), 0u);
}

TEST_F(SqlSkylineTest, SkylineAttributeMustBeNumeric) {
  EXPECT_FALSE(
      db_.Query("SELECT * FROM Movie SKYLINE OF Title MAX").ok());
}

// The served GROUP BY … SKYLINE OF operator against the Definition-3
// oracle on generated tables with added singleton groups and duplicate
// records, under all-MAX and mixed MAX/MIN preferences.
struct OracleCase {
  datagen::Distribution distribution;
  size_t dims;
  double gamma;
  bool mixed_prefs;  // odd attributes MIN instead of all MAX
};

std::string CaseName(const OracleCase& c) {
  return std::string(datagen::DistributionToString(c.distribution)) + "_d" +
         std::to_string(c.dims) + "_g" +
         std::to_string(std::lround(c.gamma * 100)) +
         (c.mixed_prefs ? "_mixed" : "_max");
}

// Prints the case by its fields, not its bytes (which include struct
// padding), so test names are the same in every build.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << CaseName(c); }

class SqlSkylineOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SqlSkylineOracleTest, ServedOperatorMatchesOracle) {
  const OracleCase& c = GetParam();
  const uint64_t seed = 100 * c.dims + static_cast<uint64_t>(c.gamma * 10) +
                        (c.mixed_prefs ? 7 : 0);
  datagen::GroupedWorkloadConfig config;
  config.num_records = 600;
  config.avg_records_per_group = 20;
  config.dims = c.dims;
  config.distribution = c.distribution;
  config.seed = seed;
  core::GroupedDataset generated = datagen::GenerateGrouped(config);

  // Per-group records in the table's own orientation.
  std::vector<std::vector<Point>> groups;
  for (const core::Group& g : generated.groups()) {
    std::vector<Point> points;
    for (size_t r = 0; r < g.size(); ++r) {
      auto p = g.point(r);
      points.emplace_back(p.begin(), p.end());
    }
    groups.push_back(std::move(points));
  }
  for (size_t g = 0; g < groups.size(); g += 3) {
    groups[g].push_back(groups[g].front());  // duplicate within a group
  }
  groups[1].push_back(groups[0].front());  // duplicate across groups
  Rng rng(seed);
  for (int k = 0; k < 4; ++k) {
    Point p(c.dims);
    for (double& x : p) x = rng.NextDouble();
    groups.push_back({std::move(p)});  // singleton groups
  }
  groups.push_back({groups[2].back()});  // singleton copying a record

  std::vector<ColumnDef> columns{{"class", ValueType::kString}};
  std::string sql = "SELECT class FROM data GROUP BY class SKYLINE OF ";
  for (size_t d = 0; d < c.dims; ++d) {
    const bool min = c.mixed_prefs && d % 2 == 1;
    columns.push_back({"a" + std::to_string(d), ValueType::kDouble});
    sql += (d > 0 ? ", a" : "a") + std::to_string(d) + (min ? " MIN" : " MAX");
  }
  sql += " GAMMA " + std::to_string(c.gamma);
  std::vector<std::string> labels;
  std::vector<Row> rows;
  for (size_t g = 0; g < groups.size(); ++g) {
    labels.push_back("c" + std::to_string(g));
    for (const Point& p : groups[g]) {
      Row row{Value(labels.back())};
      for (double x : p) row.emplace_back(x);
      rows.push_back(std::move(row));
    }
  }
  Database db;
  db.Register("data", Table(Schema(std::move(columns)), std::move(rows)));
  auto result = db.Query(sql);
  ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  std::set<std::string> served;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    served.insert(result->at(r, 0).AsString());
  }

  // The oracle sees MAX-oriented points: MIN attributes sign-flipped.
  for (std::vector<Point>& points : groups) {
    for (Point& p : points) {
      for (size_t d = 1; c.mixed_prefs && d < c.dims; d += 2) p[d] = -p[d];
    }
  }
  const testing::OracleResult oracle = testing::ComputeOracle(
      core::GroupedDataset::FromPoints(groups, labels),
      core::GammaThresholds::FromGamma(c.gamma));
  std::set<std::string> expected;
  for (uint32_t id : oracle.skyline) expected.insert(labels[id]);
  EXPECT_EQ(served, expected) << sql;
  EXPECT_LT(expected.size(), groups.size()) << "nothing was dominated";
}

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  bool mixed = false;
  for (datagen::Distribution distribution :
       {datagen::Distribution::kAntiCorrelated,
        datagen::Distribution::kIndependent}) {
    for (size_t dims : {2, 3, 4}) {
      for (double gamma : {0.5, 0.7, 0.9}) {
        cases.push_back({distribution, dims, gamma, mixed});
        mixed = !mixed;
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SeededTables, SqlSkylineOracleTest, ::testing::ValuesIn(OracleCases()),
    [](const ::testing::TestParamInfo<OracleCase>& param_info) {
      return CaseName(param_info.param);
    });

}  // namespace
}  // namespace galaxy::sql
