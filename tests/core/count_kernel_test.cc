#include "core/count_kernel.h"

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exec_context.h"
#include "core/gamma.h"
#include "core/group.h"
#include "testing/oracle.h"
#include "testing/property_gen.h"

namespace galaxy::core {
namespace {

using testing::PickAdversarialGamma;

// Exhaustive reference over raw rows, independent of the kernels.
kernel::KernelCounts NaiveCounts(const double* rows1, size_t n1,
                                 const double* rows2, size_t n2,
                                 size_t dims) {
  kernel::KernelCounts c;
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n2; ++j) {
      const double* a = rows1 + i * dims;
      const double* b = rows2 + j * dims;
      bool a_ge = true, b_ge = true, equal = true;
      for (size_t k = 0; k < dims; ++k) {
        if (a[k] < b[k]) a_ge = false;
        if (b[k] < a[k]) b_ge = false;
        if (a[k] != b[k]) equal = false;
      }
      if (a_ge && !equal) ++c.n12;
      if (b_ge && !equal) ++c.n21;
    }
  }
  return c;
}

std::vector<double> RandomRows(Rng& rng, size_t n, size_t dims,
                               int grid_levels) {
  std::vector<double> rows(n * dims);
  for (double& v : rows) {
    // Grid-aligned values so duplicates and per-dimension ties are common.
    v = static_cast<double>(rng.UniformInt(0, grid_levels - 1)) /
        static_cast<double>(grid_levels - 1);
  }
  return rows;
}

TEST(CountBlockTest, MatchesNaiveCountsForEveryDimension) {
  Rng rng(1234);
  for (size_t dims = 1; dims <= 10; ++dims) {
    for (int round = 0; round < 8; ++round) {
      const size_t n1 = static_cast<size_t>(rng.UniformInt(0, 70));
      const size_t n2 = static_cast<size_t>(rng.UniformInt(0, 70));
      std::vector<double> rows1 = RandomRows(rng, n1, dims, 4);
      std::vector<double> rows2 = RandomRows(rng, n2, dims, 4);
      kernel::KernelCounts expected =
          NaiveCounts(rows1.data(), n1, rows2.data(), n2, dims);
      kernel::KernelCounts got =
          kernel::CountBlock(rows1.data(), n1, rows2.data(), n2, dims);
      EXPECT_EQ(got.n12, expected.n12) << "dims=" << dims;
      EXPECT_EQ(got.n21, expected.n21) << "dims=" << dims;
    }
  }
}

TEST(CountBlockTest, AllEqualRowsCountInNeitherDirection) {
  for (size_t dims : {2u, 5u, 9u}) {
    std::vector<double> rows1(7 * dims, 0.5);
    std::vector<double> rows2(3 * dims, 0.5);
    kernel::KernelCounts c =
        kernel::CountBlock(rows1.data(), 7, rows2.data(), 3, dims);
    EXPECT_EQ(c.n12, 0u);
    EXPECT_EQ(c.n21, 0u);
  }
}

TEST(OneWayKernelsTest, MatchComponentwiseGeCounts) {
  Rng rng(99);
  for (size_t dims = 1; dims <= 9; ++dims) {
    const size_t n = 64;
    std::vector<double> rows = RandomRows(rng, n, dims, 3);
    std::vector<double> r = RandomRows(rng, 1, dims, 3);
    uint64_t expect_dominated = 0;
    uint64_t expect_dominating = 0;
    for (size_t j = 0; j < n; ++j) {
      if (kernel::GeqAll(r.data(), rows.data() + j * dims, dims)) {
        ++expect_dominated;
      }
      if (kernel::GeqAll(rows.data() + j * dims, r.data(), dims)) {
        ++expect_dominating;
      }
    }
    EXPECT_EQ(kernel::CountDominatedOneWay(r.data(), rows.data(), n, dims),
              expect_dominated);
    EXPECT_EQ(kernel::CountDominatingOneWay(r.data(), rows.data(), n, dims),
              expect_dominating);
  }
}

TEST(SortedPrimitivesTest, OrderScoresAndCornersAreConsistent) {
  Rng rng(5);
  const size_t dims = 3;
  const size_t n = 50;
  std::vector<double> rows = RandomRows(rng, n, dims, 5);
  std::vector<uint32_t> order;
  std::vector<double> scores;
  kernel::SortByScoreDesc(rows.data(), n, dims, &order, &scores);
  ASSERT_EQ(order.size(), n);
  ASSERT_EQ(scores.size(), n);
  std::vector<uint32_t> sorted_idx = order;
  std::sort(sorted_idx.begin(), sorted_idx.end());
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(sorted_idx[i], i);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(scores[i], kernel::RowScore(rows.data() + order[i] * dims, dims));
    if (i > 0) {
      EXPECT_GE(scores[i - 1], scores[i]);
      if (scores[i - 1] == scores[i]) {
      EXPECT_LT(order[i - 1], order[i]);
    }
    }
  }

  std::vector<double> packed;
  kernel::GatherRows(rows.data(), order.data(), n, dims, &packed);
  std::vector<double> suffmax, premin;
  kernel::BuildSuffixMax(packed.data(), n, dims, &suffmax);
  kernel::BuildPrefixMin(packed.data(), n, dims, &premin);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      double mx = packed[i * dims + k];
      for (size_t j = i; j < n; ++j) {
        mx = std::max(mx, packed[j * dims + k]);
      }
      EXPECT_EQ(suffmax[i * dims + k], mx);
      double mn = packed[k];
      for (size_t j = 0; j <= i; ++j) {
        mn = std::min(mn, packed[j * dims + k]);
      }
      EXPECT_EQ(premin[i * dims + k], mn);
    }
  }
}

// Whichever kernel ClassifyPair picks, its outcome must be the
// Definition-3 oracle's. One instance per d = 2..8, on both sides of the
// d <= kTiledMaxDims rule: groups of 8 (below kSortedMinPairs) and 40
// records, grid-aligned values (ties and duplicates), shifted groups so
// every outcome occurs, boundary gammas, and every knob that steers the
// scan.
class ClassifyPairKernelRuleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ClassifyPairKernelRuleTest, MatchesOracle) {
  const size_t dims = GetParam();
  Rng rng(20260806 + dims);
  std::set<KernelPolicy> kernels_used;
  for (size_t n : {8u, 40u}) {
    for (double shift : {0.0, 0.3, -0.3, 0.6, -0.6, 1.0, -1.0}) {
      std::vector<double> rows2 = RandomRows(rng, n, dims, 5);
      for (double& v : rows2) v += shift;
      Group g1(0, "a", RandomRows(rng, n, dims, 5), dims);
      Group g2(1, "b", std::move(rows2), dims);
      const double gamma = PickAdversarialGamma(rng);
      GammaThresholds thresholds = GammaThresholds::FromGamma(gamma);
      const PairOutcome expected =
          testing::OracleClassifyPair(g1, g2, thresholds);
      for (bool stop : {false, true}) {
        for (bool mbb : {false, true}) {
          for (bool charged : {false, true}) {
            ExecutionContext exec;
            PairCompareOptions options;
            options.use_stop_rule = stop;
            options.use_mbb = mbb;
            options.exec = charged ? &exec : nullptr;
            PairCompareStats stats;
            PairOutcome got =
                ClassifyPair(g1, g2, thresholds, options, &stats);
            EXPECT_EQ(got, expected)
                << "n=" << n << " shift=" << shift << " stop=" << stop
                << " mbb=" << mbb << " charged=" << charged
                << " gamma=" << gamma
                << " kernel=" << KernelPolicyToString(stats.kernel_used);
            EXPECT_FALSE(stats.aborted);
            kernels_used.insert(stats.kernel_used);
          }
        }
      }
    }
  }
  // Both kernels are exercised above kTiledMaxDims; only the tiles below.
  if (dims <= kernel::kTiledMaxDims) {
    EXPECT_EQ(kernels_used, std::set<KernelPolicy>{KernelPolicy::kTiled});
  } else {
    EXPECT_EQ(kernels_used, (std::set<KernelPolicy>{KernelPolicy::kTiled,
                                                    KernelPolicy::kSorted}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, ClassifyPairKernelRuleTest, ::testing::Range<size_t>(2, 9),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return "d" + std::to_string(param_info.param);
    });

// Pins the kernel rule on 40 x 40 records (1600 residual pairs, above
// kSortedMinPairs): the tiles run at d = 4, the sorted kernel at d = 6,
// and a charged scan tiles at any d.
TEST(ClassifyPairKernelTest, KernelRuleSplitsAtFourDimensions) {
  Rng rng(31);
  GammaThresholds thresholds = GammaThresholds::FromGamma(0.75);
  auto kernel_for = [&](size_t dims, ExecutionContext* exec) {
    Group g1(0, "a", RandomRows(rng, 40, dims, 1000), dims);
    Group g2(1, "b", RandomRows(rng, 40, dims, 1000), dims);
    PairCompareOptions options;
    options.exec = exec;
    PairCompareStats stats;
    EXPECT_EQ(ClassifyPair(g1, g2, thresholds, options, &stats),
              testing::OracleClassifyPair(g1, g2, thresholds))
        << "dims=" << dims;
    return stats.kernel_used;
  };
  EXPECT_EQ(kernel_for(4, nullptr), KernelPolicy::kTiled);
  EXPECT_EQ(kernel_for(6, nullptr), KernelPolicy::kSorted);
  ExecutionContext exec;
  EXPECT_EQ(kernel_for(6, &exec), KernelPolicy::kTiled);
}

// The rule's other two tiling branches at d = 6, where uncharged
// stop-rule scans otherwise run sorted: the stop rule off, and a residual
// one pair short of kSortedMinPairs (15 x 17 = 255 against 16 x 16 = 256).
TEST(ClassifyPairKernelTest, KernelRuleTilesWithoutStopRuleOrBelowMinPairs) {
  static_assert(kernel::kSortedMinPairs == 256);
  Rng rng(32);
  const size_t dims = 6;
  GammaThresholds thresholds = GammaThresholds::FromGamma(0.75);
  auto kernel_for = [&](size_t n1, size_t n2, bool stop) {
    Group g1(0, "a", RandomRows(rng, n1, dims, 1000), dims);
    Group g2(1, "b", RandomRows(rng, n2, dims, 1000), dims);
    PairCompareOptions options;
    options.use_stop_rule = stop;
    PairCompareStats stats;
    EXPECT_EQ(ClassifyPair(g1, g2, thresholds, options, &stats),
              testing::OracleClassifyPair(g1, g2, thresholds))
        << "n1=" << n1 << " n2=" << n2 << " stop=" << stop;
    return stats.kernel_used;
  };
  EXPECT_EQ(kernel_for(40, 40, false), KernelPolicy::kTiled);
  EXPECT_EQ(kernel_for(15, 17, true), KernelPolicy::kTiled);
  EXPECT_EQ(kernel_for(16, 16, true), KernelPolicy::kSorted);
}

TEST(ClassifyPairKernelTest, MbbStatsReportPreclassifiedRecords) {
  // g1 sits entirely above g2's max corner except one straggler, so the
  // MBB preclassification removes most records from the pairwise scan.
  std::vector<Point> high, low;
  for (int i = 0; i < 6; ++i) {
    high.push_back({10.0 + i, 10.0 + i});
    low.push_back({static_cast<double>(i % 3), static_cast<double>(i % 2)});
  }
  high.push_back({0.5, 0.5});  // inside g2's MBB: must be scanned
  core::GroupedDataset ds = core::GroupedDataset::FromPoints({high, low});
  GammaThresholds thresholds = GammaThresholds::FromGamma(0.5);
  PairCompareOptions options;
  options.use_mbb = true;
  options.use_stop_rule = false;
  PairCompareStats stats;
  ClassifyPair(ds.group(0), ds.group(1), thresholds, options, &stats);
  EXPECT_GT(stats.records_preclassified, 0u);
  const uint64_t total_records = ds.group(0).size() + ds.group(1).size();
  EXPECT_GT(stats.preclassified_record_fraction(total_records), 0.0);
  EXPECT_LE(stats.preclassified_record_fraction(total_records), 1.0);
}

TEST(GroupScoreOrderTest, OrderIsDescendingAndStableUnderConcurrency) {
  Rng rng(7);
  std::vector<double> data = RandomRows(rng, 200, 4, 6);
  Group g(0, "g", data, 4);
  const std::vector<uint32_t>* first = nullptr;
  // Hammer the lazy initialization from several threads; all must observe
  // the same published vector.
  std::vector<std::thread> threads;
  std::vector<const std::vector<uint32_t>*> seen(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, &seen, t] { seen[t] = &g.score_order_desc(); });
  }
  for (std::thread& t : threads) t.join();
  first = seen[0];
  for (const auto* p : seen) EXPECT_EQ(p, first);

  const std::vector<uint32_t>& order = *first;
  ASSERT_EQ(order.size(), g.size());
  for (size_t i = 1; i < order.size(); ++i) {
    double prev = kernel::RowScore(data.data() + order[i - 1] * 4, 4);
    double cur = kernel::RowScore(data.data() + order[i] * 4, 4);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }

  // Copies recompute (and agree); moves carry the cache along.
  Group copy = g;
  EXPECT_EQ(copy.score_order_desc(), order);
  Group moved = std::move(copy);
  EXPECT_EQ(moved.score_order_desc(), order);
}

}  // namespace
}  // namespace galaxy::core
