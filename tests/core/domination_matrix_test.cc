#include "testing/domination_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace galaxy::core {
namespace {

Group MakeGroup(uint32_t id, std::vector<Point> pts) {
  std::vector<double> buf;
  size_t dims = pts.front().size();
  for (const Point& p : pts) buf.insert(buf.end(), p.begin(), p.end());
  return Group(id, "g" + std::to_string(id), std::move(buf), dims);
}

// The three groups of Figure 6: R ≻.5 S, S ≻.5 T but R ⊁.5 T.
// Engineered so that the R-S and S-T domination matrices match the paper's
// example: pos(RS) = 5/8, pos(ST) = 2/3, pos(RT) = 1/2.
struct Figure6Groups {
  Group r = MakeGroup(0, {{4, 8}, {9, 9}, {5, 7}, {6, 6}});
  Group s = MakeGroup(1, {{3, 5}, {8, 8}});
  Group t = MakeGroup(2, {{2, 2}, {7, 7.5}, {7.5, 7}});
};

TEST(DominationMatrixTest, BuildMatchesPairwiseDominance) {
  Figure6Groups f;
  DominationMatrix rs = DominationMatrix::Build(f.r, f.s);
  ASSERT_EQ(rs.rows(), 4u);
  ASSERT_EQ(rs.cols(), 2u);
  for (size_t i = 0; i < rs.rows(); ++i) {
    for (size_t j = 0; j < rs.cols(); ++j) {
      EXPECT_EQ(rs.at(i, j),
                skyline::Dominates(f.r.point(i), f.s.point(j)));
    }
  }
}

TEST(DominationMatrixTest, Figure6PosValues) {
  Figure6Groups f;
  DominationMatrix rs = DominationMatrix::Build(f.r, f.s);
  DominationMatrix st = DominationMatrix::Build(f.s, f.t);
  DominationMatrix rt = DominationMatrix::Build(f.r, f.t);
  EXPECT_DOUBLE_EQ(rs.pos(), 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(st.pos(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(rt.pos(), 0.5);
  // R ≻.5 S and S ≻.5 T, but p(R ≻ T) = .5 is NOT > .5: transitivity fails
  // (Proposition 4).
  EXPECT_GT(rs.pos(), 0.5);
  EXPECT_GT(st.pos(), 0.5);
  EXPECT_FALSE(rt.pos() > 0.5);
}

TEST(DominationMatrixTest, BooleanProductIsLowerBoundWitness) {
  // Fact 2 of the Proposition 5 proof: every positive entry of RS x ST
  // certifies a positive entry of RT (record dominance is transitive).
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    auto random_group = [&](uint32_t id, size_t n) {
      std::vector<Point> pts;
      for (size_t i = 0; i < n; ++i) {
        pts.push_back({rng.NextDouble(), rng.NextDouble()});
      }
      return MakeGroup(id, pts);
    };
    Group r = random_group(0, 1 + trial % 5);
    Group s = random_group(1, 1 + (trial / 2) % 5);
    Group t = random_group(2, 1 + (trial / 3) % 5);
    DominationMatrix product = DominationMatrix::Build(r, s).BooleanProduct(
        DominationMatrix::Build(s, t));
    DominationMatrix rt = DominationMatrix::Build(r, t);
    for (size_t i = 0; i < rt.rows(); ++i) {
      for (size_t k = 0; k < rt.cols(); ++k) {
        if (product.at(i, k)) {
        EXPECT_TRUE(rt.at(i, k));
      }
      }
    }
    EXPECT_LE(product.pos(), rt.pos() + 1e-12);
  }
}

TEST(DominationMatrixTest, CountPositiveAndSetters) {
  DominationMatrix m(2, 3);
  EXPECT_EQ(m.CountPositive(), 0u);
  m.set(0, 0, true);
  m.set(1, 2, true);
  EXPECT_EQ(m.CountPositive(), 2u);
  EXPECT_TRUE(m.at(0, 0));
  EXPECT_FALSE(m.at(0, 1));
  m.set(0, 0, false);
  EXPECT_EQ(m.CountPositive(), 1u);
  EXPECT_DOUBLE_EQ(m.pos(), 1.0 / 6.0);
}

TEST(DominationMatrixTest, ProductShape) {
  DominationMatrix a(2, 3);
  DominationMatrix b(3, 4);
  a.set(0, 1, true);
  b.set(1, 3, true);
  DominationMatrix p = a.BooleanProduct(b);
  EXPECT_EQ(p.rows(), 2u);
  EXPECT_EQ(p.cols(), 4u);
  EXPECT_TRUE(p.at(0, 3));
  EXPECT_EQ(p.CountPositive(), 1u);
}

TEST(DominationMatrixTest, ToStringRendering) {
  DominationMatrix m(2, 2);
  m.set(0, 0, true);
  EXPECT_EQ(m.ToString(), "1 0\n0 0\n");
}

}  // namespace
}  // namespace galaxy::core
