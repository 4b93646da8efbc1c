#include "core/incremental.h"

#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregate_skyline.h"
#include "core/gamma.h"
#include "datagen/movies.h"
#include "testing/oracle.h"

namespace galaxy::core {
namespace {

std::set<uint32_t> AsSet(const std::vector<uint32_t>& v) {
  return {v.begin(), v.end()};
}

// Rebuilds a GroupedDataset from the maintainer's current contents and
// computes the exact skyline from scratch.
std::set<uint32_t> RecomputeSkyline(
    const std::vector<std::vector<Point>>& contents, double gamma) {
  // Empty groups cannot be represented in GroupedDataset; map indexes.
  std::vector<std::vector<Point>> non_empty;
  std::vector<uint32_t> ids;
  for (uint32_t g = 0; g < contents.size(); ++g) {
    if (!contents[g].empty()) {
      non_empty.push_back(contents[g]);
      ids.push_back(g);
    }
  }
  std::set<uint32_t> out;
  if (non_empty.empty()) return out;
  GroupedDataset ds = GroupedDataset::FromPoints(non_empty);
  AggregateSkylineOptions options;
  options.gamma = gamma;
  options.algorithm = Algorithm::kBruteForce;
  for (uint32_t id : ComputeAggregateSkyline(ds, options).skyline) {
    out.insert(ids[id]);
  }
  return out;
}

TEST(IncrementalTest, MatchesBatchOnMovieExample) {
  Table movies = datagen::MovieTable();
  IncrementalAggregateSkyline inc(2, 0.5);
  std::map<std::string, uint32_t> directors;
  for (size_t r = 0; r < movies.num_rows(); ++r) {
    std::string director = movies.at(r, "Director").value().AsString();
    auto [it, inserted] =
        directors.try_emplace(director, 0);
    if (inserted) it->second = inc.AddGroup(director);
    double pop = movies.at(r, "Pop").value().ToDouble().value();
    double qual = movies.at(r, "Qual").value().ToDouble().value();
    ASSERT_TRUE(inc.AddRecord(it->second, {pop, qual}).ok());
  }
  std::set<std::string> labels;
  for (uint32_t id : inc.Skyline()) labels.insert(inc.label(id));
  EXPECT_EQ(labels, (std::set<std::string>{"Coppola", "Jackson", "Kershner",
                                           "Tarantino"}));
}

TEST(IncrementalTest, RandomInsertRemoveCrossValidation) {
  Rng rng(404);
  const size_t dims = 2;
  const double gamma = 0.5;
  IncrementalAggregateSkyline inc(dims, gamma);
  std::vector<std::vector<Point>> shadow;

  for (int g = 0; g < 8; ++g) {
    inc.AddGroup("g" + std::to_string(g));
    shadow.emplace_back();
  }

  for (int step = 0; step < 400; ++step) {
    uint32_t g = static_cast<uint32_t>(rng.UniformInt(0, 7));
    bool remove = !shadow[g].empty() && rng.Bernoulli(0.35);
    if (remove) {
      size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(shadow[g].size()) - 1));
      Point victim = shadow[g][idx];
      ASSERT_TRUE(inc.RemoveRecord(g, victim).ok());
      shadow[g].erase(shadow[g].begin() + static_cast<long>(idx));
    } else {
      Point p = {rng.NextDouble(), rng.NextDouble()};
      ASSERT_TRUE(inc.AddRecord(g, p).ok());
      shadow[g].push_back(p);
    }
    if (step % 20 == 19) {
      EXPECT_EQ(AsSet(inc.Skyline()), RecomputeSkyline(shadow, gamma))
          << "step " << step;
    }
  }
}

TEST(IncrementalTest, DominationCountsMatchBruteForce) {
  Rng rng(405);
  IncrementalAggregateSkyline inc(3, 0.6);
  std::vector<std::vector<Point>> shadow(3);
  for (int g = 0; g < 3; ++g) inc.AddGroup("g" + std::to_string(g));
  for (int i = 0; i < 60; ++i) {
    uint32_t g = static_cast<uint32_t>(rng.UniformInt(0, 2));
    Point p = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(inc.AddRecord(g, p).ok());
    shadow[g].push_back(p);
  }
  for (uint32_t s = 0; s < 3; ++s) {
    for (uint32_t r = 0; r < 3; ++r) {
      if (s == r) continue;
      uint64_t expected = 0;
      for (const Point& x : shadow[s]) {
        for (const Point& y : shadow[r]) {
          if (skyline::Dominates(x, y)) ++expected;
        }
      }
      EXPECT_EQ(inc.DominationCount(s, r).value(), expected);
      EXPECT_DOUBLE_EQ(
          inc.DominationProbability(s, r).value(),
          static_cast<double>(expected) /
              static_cast<double>(shadow[s].size() * shadow[r].size()));
    }
  }
}

TEST(IncrementalTest, GroupGrowthPreservesCounts) {
  IncrementalAggregateSkyline inc(2);
  uint32_t a = inc.AddGroup("a");
  uint32_t b = inc.AddGroup("b");
  ASSERT_TRUE(inc.AddRecord(a, {2, 2}).ok());
  ASSERT_TRUE(inc.AddRecord(b, {1, 1}).ok());
  EXPECT_EQ(inc.DominationCount(a, b).value(), 1u);
  // Adding a third group must not disturb existing counts.
  uint32_t c = inc.AddGroup("c");
  EXPECT_EQ(inc.DominationCount(a, b).value(), 1u);
  ASSERT_TRUE(inc.AddRecord(c, {3, 3}).ok());
  EXPECT_EQ(inc.DominationCount(c, a).value(), 1u);
  EXPECT_EQ(inc.DominationCount(c, b).value(), 1u);
}

TEST(IncrementalTest, EmptyGroupsDoNotParticipate) {
  IncrementalAggregateSkyline inc(2);
  uint32_t a = inc.AddGroup("a");
  inc.AddGroup("empty");
  ASSERT_TRUE(inc.AddRecord(a, {1, 1}).ok());
  EXPECT_EQ(inc.Skyline(), (std::vector<uint32_t>{a}));
}

TEST(IncrementalTest, StrictDominationExcludesAtGammaOne) {
  IncrementalAggregateSkyline inc(2, 1.0);
  uint32_t strong = inc.AddGroup("strong");
  uint32_t weak = inc.AddGroup("weak");
  ASSERT_TRUE(inc.AddRecord(strong, {5, 5}).ok());
  ASSERT_TRUE(inc.AddRecord(weak, {1, 1}).ok());
  EXPECT_TRUE(inc.IsDominated(weak).value());
  EXPECT_FALSE(inc.IsDominated(strong).value());
  EXPECT_EQ(inc.Skyline(), (std::vector<uint32_t>{strong}));
  // Give the weak group one incomparable record: p drops below 1 and at
  // gamma = 1 it re-enters the skyline.
  ASSERT_TRUE(inc.AddRecord(weak, {0.5, 9}).ok());
  EXPECT_FALSE(inc.IsDominated(weak).value());
  EXPECT_EQ(inc.Skyline().size(), 2u);
}

TEST(IncrementalTest, ErrorHandling) {
  IncrementalAggregateSkyline inc(2);
  EXPECT_FALSE(inc.AddRecord(99, {1, 1}).ok());
  uint32_t g = inc.AddGroup("g");
  EXPECT_FALSE(inc.AddRecord(g, {1, 2, 3}).ok());  // wrong dims
  EXPECT_FALSE(inc.RemoveRecord(g, {1, 1}).ok());  // absent
  EXPECT_FALSE(inc.DominationCount(g, g).ok());
  EXPECT_FALSE(inc.DominationProbability(g, g).ok());
  EXPECT_FALSE(inc.IsDominated(g).ok());  // empty group
  ASSERT_TRUE(inc.AddRecord(g, {1, 1}).ok());
  EXPECT_TRUE(inc.RemoveRecord(g, {1, 1}).ok());
  EXPECT_EQ(inc.total_records(), 0u);
}

TEST(IncrementalTest, RemoveThenReAddRestoresState) {
  IncrementalAggregateSkyline inc(2);
  uint32_t a = inc.AddGroup("a");
  uint32_t b = inc.AddGroup("b");
  ASSERT_TRUE(inc.AddRecord(a, {2, 2}).ok());
  ASSERT_TRUE(inc.AddRecord(a, {0.5, 0.5}).ok());
  ASSERT_TRUE(inc.AddRecord(b, {1, 1}).ok());
  // p(a ≻ b) = 1/2: not dominated.
  EXPECT_EQ(inc.Skyline().size(), 2u);
  // Removing a's weak record makes domination strict: b drops out.
  ASSERT_TRUE(inc.RemoveRecord(a, {0.5, 0.5}).ok());
  EXPECT_EQ(inc.Skyline(), (std::vector<uint32_t>{a}));
  // Re-adding restores the original state.
  ASSERT_TRUE(inc.AddRecord(a, {0.5, 0.5}).ok());
  EXPECT_EQ(inc.Skyline().size(), 2u);
}

// ---- Definition-3 oracle over random update sequences ---------------------

// Coordinates on a small integer grid, so equal records, ties on single
// attributes and probabilities exactly at γ all occur.
Point GridPoint(Rng* rng, size_t dims) {
  Point p(dims);
  for (double& v : p) v = static_cast<double>(rng->UniformInt(0, 3));
  return p;
}

GroupedDataset ShadowDataset(const std::vector<std::vector<Point>>& shadow,
                             size_t dims) {
  std::vector<std::vector<double>> buffers(shadow.size());
  for (size_t g = 0; g < shadow.size(); ++g) {
    for (const Point& p : shadow[g]) {
      buffers[g].insert(buffers[g].end(), p.begin(), p.end());
    }
  }
  return GroupedDataset::FromDenseBuffers(dims, std::move(buffers));
}

// Checks Skyline() and every ordered count of `inc` against
// testing::ComputeOracle on the records the view should hold.
void ExpectMatchesOracle(const IncrementalAggregateSkyline& inc,
                         const std::vector<std::vector<Point>>& shadow,
                         const std::string& where) {
  ASSERT_EQ(inc.num_groups(), shadow.size()) << where;
  const GroupedDataset ds = ShadowDataset(shadow, inc.dims());
  const testing::OracleResult oracle =
      testing::ComputeOracle(ds, GammaThresholds::FromGamma(inc.gamma()));
  // The oracle lists empty groups as undominated; the view leaves them out.
  std::vector<uint32_t> expected;
  for (uint32_t id : oracle.skyline) {
    if (!shadow[id].empty()) expected.push_back(id);
  }
  EXPECT_EQ(inc.Skyline(), expected) << where;
  for (uint32_t s = 0; s < shadow.size(); ++s) {
    ASSERT_EQ(inc.group_size(s), shadow[s].size()) << where;
    for (uint32_t r = 0; r < shadow.size(); ++r) {
      if (s == r) continue;
      const uint64_t total =
          static_cast<uint64_t>(shadow[s].size()) * shadow[r].size();
      const double p =
          testing::OracleDominationProbability(ds.group(s), ds.group(r));
      EXPECT_EQ(inc.DominationCount(s, r).value(),
                static_cast<uint64_t>(std::llround(p * total)))
          << where << " pair " << s << "->" << r;
      if (total > 0) {
        EXPECT_EQ(inc.DominationProbability(s, r).value(), p)
            << where << " pair " << s << "->" << r;
      }
    }
  }
}

struct OracleCase {
  size_t dims;
  double gamma;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "d=" << c.dims << " gamma=" << c.gamma;
}

class IncrementalOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(IncrementalOracleTest, RandomUpdatesMatchOracleAfterEveryStep) {
  const OracleCase param = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 1000 + param.dims * 10 +
            static_cast<uint64_t>(param.gamma * 10));
    // Bulk-seed a few groups (one of them empty), then mutate.
    std::vector<std::vector<Point>> shadow(4);
    for (size_t g = 0; g + 1 < shadow.size(); ++g) {
      const int64_t n = rng.UniformInt(1, 5);
      for (int64_t i = 0; i < n; ++i) {
        shadow[g].push_back(GridPoint(&rng, param.dims));
      }
    }
    IncrementalAggregateSkyline inc = IncrementalAggregateSkyline::FromDataset(
        ShadowDataset(shadow, param.dims), param.gamma);
    ExpectMatchesOracle(inc, shadow, "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;

    for (int step = 0; step < 200; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const double op = rng.NextDouble();
      const uint32_t g = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
      if (op < 0.04 && shadow.size() < 8) {
        // A group added mid-sequence.
        EXPECT_EQ(inc.AddGroup("late" + std::to_string(step)), shadow.size());
        shadow.emplace_back();
      } else if (op < 0.08) {
        // Empty the group completely, one remove at a time.
        while (!shadow[g].empty()) {
          ASSERT_TRUE(inc.RemoveRecord(g, shadow[g].back()).ok()) << where;
          shadow[g].pop_back();
        }
      } else if (op < 0.45 && !shadow[g].empty()) {
        const size_t idx = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(shadow[g].size()) - 1));
        const Point victim = shadow[g][idx];
        ASSERT_TRUE(inc.RemoveRecord(g, victim).ok()) << where;
        // Equal records are interchangeable: drop the first equal one.
        shadow[g].erase(std::find(shadow[g].begin(), shadow[g].end(), victim));
      } else {
        // Insert a fresh record, or a duplicate of one already stored in
        // this or another group.
        Point p = GridPoint(&rng, param.dims);
        const uint32_t from = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
        if (rng.Bernoulli(0.3) && !shadow[from].empty()) {
          p = shadow[from][static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(shadow[from].size()) - 1))];
        }
        ASSERT_TRUE(inc.AddRecord(g, p).ok()) << where;
        shadow[g].push_back(p);
      }
      ExpectMatchesOracle(inc, shadow, where);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndGammas, IncrementalOracleTest,
    ::testing::Values(OracleCase{2, 0.5}, OracleCase{2, 0.6},
                      OracleCase{2, 1.0}, OracleCase{3, 0.5},
                      OracleCase{3, 0.6}, OracleCase{3, 1.0},
                      OracleCase{5, 0.5}, OracleCase{5, 0.6},
                      OracleCase{5, 1.0}),
    [](const ::testing::TestParamInfo<OracleCase>& param_info) {
      return "d" + std::to_string(param_info.param.dims) + "_gamma" +
             std::to_string(static_cast<int>(param_info.param.gamma * 10));
    });

TEST(IncrementalTest, BulkSeedMatchesPerRecordSeeding) {
  // d = 9 takes the kernel's generic (non-specialized) loop.
  for (size_t dims : {2u, 3u, 5u, 9u}) {
    Rng rng(900 + dims);
    std::vector<std::vector<Point>> shadow(12);
    for (size_t g = 0; g < shadow.size(); ++g) {
      // Group 0 stays empty; sizes up to 40 span several kernel tiles.
      const int64_t n = g == 0 ? 0 : rng.UniformInt(1, 40);
      for (int64_t i = 0; i < n; ++i) {
        shadow[g].push_back(rng.Bernoulli(0.2) && !shadow[g].empty()
                                ? shadow[g].front()
                                : GridPoint(&rng, dims));
      }
    }
    const GroupedDataset ds = ShadowDataset(shadow, dims);
    IncrementalAggregateSkyline bulk =
        IncrementalAggregateSkyline::FromDataset(ds, 0.6);
    IncrementalAggregateSkyline per_record(dims, 0.6);
    for (uint32_t g = 0; g < shadow.size(); ++g) {
      ASSERT_EQ(per_record.AddGroup(ds.group(g).label()), g);
      for (const Point& p : shadow[g]) {
        ASSERT_TRUE(per_record.AddRecord(g, p).ok());
      }
    }
    ASSERT_EQ(bulk.num_groups(), per_record.num_groups());
    EXPECT_EQ(bulk.total_records(), per_record.total_records());
    for (uint32_t s = 0; s < shadow.size(); ++s) {
      EXPECT_EQ(bulk.label(s), per_record.label(s));
      EXPECT_EQ(bulk.group_size(s), per_record.group_size(s));
      for (uint32_t r = 0; r < shadow.size(); ++r) {
        if (s == r) continue;
        EXPECT_EQ(bulk.DominationCount(s, r).value(),
                  per_record.DominationCount(s, r).value())
            << "d " << dims << " pair " << s << "->" << r;
      }
    }
    EXPECT_EQ(bulk.Skyline(), per_record.Skyline()) << "d " << dims;
    ExpectMatchesOracle(bulk, shadow, "bulk d " + std::to_string(dims));
  }
}

}  // namespace
}  // namespace galaxy::core
