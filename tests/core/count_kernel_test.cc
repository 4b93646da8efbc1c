#include "core/count_kernel.h"

#include <string>
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

// Crosses the kernel's column-major chunks: n2 on both sides of one and
// two kChunkRows (128-row) chunks, and d up to 10, where the generic loop
// shrinks its chunk to fit the stack buffer; d = 1500 rows are wider
// than the buffer.
TEST(CountBlockTest, ChunkBoundariesMatchNaiveCounts) {
  Rng rng(4321);
  for (size_t dims : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 1500u}) {
    for (size_t n1 : {1u, 3u, 32u}) {
      for (size_t n2 : {1u, 127u, 128u, 129u, 300u}) {
        std::vector<double> rows1 = RandomRows(rng, n1, dims, 3);
        std::vector<double> rows2 = RandomRows(rng, n2, dims, 3);
        // Duplicate rows across the two blocks.
        for (size_t k = 0; k < dims; ++k) {
          rows2[(n2 - 1) * dims + k] = rows1[k];
        }
        kernel::KernelCounts expected =
            NaiveCounts(rows1.data(), n1, rows2.data(), n2, dims);
        kernel::KernelCounts got =
            kernel::CountBlock(rows1.data(), n1, rows2.data(), n2, dims);
        EXPECT_EQ(got.n12, expected.n12)
            << "dims=" << dims << " n1=" << n1 << " n2=" << n2;
        EXPECT_EQ(got.n21, expected.n21)
            << "dims=" << dims << " n1=" << n1 << " n2=" << n2;
      }
    }
  }
}

// ClassifyPair's outcome must be the Definition-3 oracle's. One instance
// per d = 2..8: groups of 8 and 40 records, grid-aligned values (ties and
// duplicates), shifted groups so every outcome occurs, boundary gammas,
// and every knob that steers the scan.
class ClassifyPairTiledTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ClassifyPairTiledTest, MatchesOracle) {
  const size_t dims = GetParam();
  Rng rng(20260806 + dims);
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
                << " gamma=" << gamma;
            EXPECT_FALSE(stats.aborted);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, ClassifyPairTiledTest, ::testing::Range<size_t>(2, 9),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return "d" + std::to_string(param_info.param);
    });

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

}  // namespace
}  // namespace galaxy::core
