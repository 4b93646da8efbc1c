// Cross-validation of independent implementations of the same math:
// ClassifyPair vs the DominationMatrix framework, the MBB region counts vs
// brute force, and a compile-coverage check of the umbrella header.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/domination_matrix.h"
#include "core/gamma.h"
#include "galaxy.h"  // umbrella header must compile and interoperate

namespace galaxy::core {
namespace {

Group MakeGroup(uint32_t id, const std::vector<Point>& pts) {
  std::vector<double> buf;
  size_t dims = pts.front().size();
  for (const Point& p : pts) buf.insert(buf.end(), p.begin(), p.end());
  return Group(id, "g" + std::to_string(id), std::move(buf), dims);
}

std::vector<Point> RandomPoints(Rng& rng, size_t n, size_t dims,
                                double shift) {
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    Point p(dims);
    for (size_t d = 0; d < dims; ++d) p[d] = rng.NextDouble() + shift;
    pts.push_back(std::move(p));
  }
  return pts;
}

// ClassifyPair and the DominationMatrix pos() values must induce the same
// classification: two entirely separate code paths compute |S ≻ R|.
TEST(CrossValidationTest, ClassifyPairAgreesWithDominationMatrix) {
  Rng rng(515);
  for (int trial = 0; trial < 500; ++trial) {
    Group g1 = MakeGroup(
        0, RandomPoints(rng, 1 + trial % 7, 3, rng.Uniform(-0.5, 0.5)));
    Group g2 = MakeGroup(
        1, RandomPoints(rng, 1 + (trial / 3) % 7, 3, rng.Uniform(-0.5, 0.5)));
    double gamma = 0.5 + 0.5 * rng.NextDouble();
    GammaThresholds t = GammaThresholds::FromGamma(gamma);

    DominationMatrix m12 = DominationMatrix::Build(g1, g2);
    DominationMatrix m21 = DominationMatrix::Build(g2, g1);
    double p12 = m12.pos();
    double p21 = m21.pos();
    auto dominates = [&](double p, double threshold) {
      return p == 1.0 || p > threshold;
    };
    PairOutcome expected;
    if (dominates(p12, t.gamma_bar)) {
      expected = PairOutcome::kFirstDominatesStrongly;
    } else if (dominates(p12, t.gamma)) {
      expected = PairOutcome::kFirstDominates;
    } else if (dominates(p21, t.gamma_bar)) {
      expected = PairOutcome::kSecondDominatesStrongly;
    } else if (dominates(p21, t.gamma)) {
      expected = PairOutcome::kSecondDominates;
    } else {
      expected = PairOutcome::kIncomparable;
    }

    PairCompareOptions options;
    options.use_mbb = trial % 2 == 0;
    EXPECT_EQ(ClassifyPair(g1, g2, t, options), expected)
        << "trial " << trial << " gamma " << gamma;
    // And the matrix counts agree with the direct counter.
    EXPECT_EQ(m12.CountPositive(), CountDominatedPairs(g1, g2));
    EXPECT_EQ(m21.CountPositive(), CountDominatedPairs(g2, g1));
  }
}

// The Figure 9(c) region classification: records below the opponent MBB's
// min corner are dominated by every opponent record; records above its max
// corner dominate every opponent record. Verified against brute force.
TEST(CrossValidationTest, MbbRegionsMatchBruteForce) {
  Rng rng(616);
  for (int trial = 0; trial < 300; ++trial) {
    Group g1 = MakeGroup(
        0, RandomPoints(rng, 2 + trial % 10, 2, rng.Uniform(-0.3, 0.3)));
    Group g2 = MakeGroup(
        1, RandomPoints(rng, 2 + (trial / 2) % 10, 2, rng.Uniform(-0.3, 0.3)));
    const Box& b2 = g2.mbb();
    for (size_t i = 0; i < g1.size(); ++i) {
      auto r = g1.point(i);
      if (skyline::Dominates(b2.min, r)) {
        // Claimed: every record of g2 dominates r.
        for (size_t j = 0; j < g2.size(); ++j) {
          EXPECT_TRUE(skyline::Dominates(g2.point(j), r));
        }
      }
      if (skyline::Dominates(r, b2.max)) {
        // Claimed: r dominates every record of g2.
        for (size_t j = 0; j < g2.size(); ++j) {
          EXPECT_TRUE(skyline::Dominates(r, g2.point(j)));
        }
      }
    }
  }
}

// The umbrella header exposes every public surface coherently: touch one
// symbol from each module in a single translation unit.
TEST(CrossValidationTest, UmbrellaHeaderInteroperates) {
  Table movies = datagen::MovieTable();
  sql::Database db;
  db.Register("m", movies);
  auto rows = db.Query("SELECT count(*) FROM m");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->at(0, 0), Value(10));

  auto ds = GroupedDataset::FromTable(movies, {"Director"}, {"Pop", "Qual"});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_groups(), 7u);

  spatial::RTree tree(2);
  tree.Insert({0.5, 0.5}, 1);
  EXPECT_EQ(tree.size(), 1u);

  Rng rng(1);
  ZipfSampler zipf(10, 1.0);
  EXPECT_GE(zipf.Sample(rng), 1);

  auto sky = skyline::ComputeOnTable(movies, {"Pop", "Qual"},
                                     skyline::AllMax(2));
  ASSERT_TRUE(sky.ok());
  EXPECT_EQ(sky->size(), 2u);
}

}  // namespace
}  // namespace galaxy::core
