#include "datagen/groups.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace galaxy::datagen {
namespace {

TEST(GroupsGenTest, RespectsRecordAndGroupBudget) {
  GroupedWorkloadConfig config;
  config.num_records = 1000;
  config.avg_records_per_group = 50;
  config.dims = 3;
  core::GroupedDataset ds = GenerateGrouped(config);
  EXPECT_EQ(ds.num_groups(), 20u);
  EXPECT_EQ(ds.total_records(), 1000u);
  EXPECT_EQ(ds.dims(), 3u);
}

TEST(GroupsGenTest, NoEmptyGroups) {
  GroupedWorkloadConfig config;
  config.num_records = 200;
  config.avg_records_per_group = 10;
  config.size_model = GroupSizeModel::kZipf;
  config.zipf_theta = 1.5;  // heavily skewed
  core::GroupedDataset ds = GenerateGrouped(config);
  for (const core::Group& g : ds.groups()) {
    EXPECT_GE(g.size(), 1u);
  }
}

TEST(GroupsGenTest, PointsInsideUnitCube) {
  GroupedWorkloadConfig config;
  config.num_records = 500;
  config.spread = 0.5;
  core::GroupedDataset ds = GenerateGrouped(config);
  for (const core::Group& g : ds.groups()) {
    for (size_t i = 0; i < g.size(); ++i) {
      for (double v : g.point(i)) {
        ASSERT_GE(v, 0.0);
        ASSERT_LE(v, 1.0);
      }
    }
  }
}

TEST(GroupsGenTest, SpreadBoundsGroupExtent) {
  GroupedWorkloadConfig config;
  config.num_records = 2000;
  config.avg_records_per_group = 100;
  config.spread = 0.2;
  core::GroupedDataset ds = GenerateGrouped(config);
  for (const core::Group& g : ds.groups()) {
    const Box& b = g.mbb();
    for (size_t d = 0; d < b.dims(); ++d) {
      EXPECT_LE(b.max[d] - b.min[d], 0.2 + 1e-12);
    }
  }
}

TEST(GroupsGenTest, LargerSpreadIncreasesMbbOverlap) {
  auto overlap_count = [](const core::GroupedDataset& ds) {
    size_t count = 0;
    for (size_t i = 0; i < ds.num_groups(); ++i) {
      for (size_t j = i + 1; j < ds.num_groups(); ++j) {
        if (ds.group(i).mbb().Intersects(ds.group(j).mbb())) ++count;
      }
    }
    return count;
  };
  GroupedWorkloadConfig narrow;
  narrow.num_records = 2000;
  narrow.avg_records_per_group = 100;
  narrow.spread = 0.1;
  narrow.seed = 9;
  GroupedWorkloadConfig wide = narrow;
  wide.spread = 0.8;
  EXPECT_GT(overlap_count(GenerateGrouped(wide)),
            overlap_count(GenerateGrouped(narrow)));
}

TEST(GroupsGenTest, UniformSizesAreBalanced) {
  GroupedWorkloadConfig config;
  config.num_records = 10000;
  config.avg_records_per_group = 100;
  config.size_model = GroupSizeModel::kUniform;
  core::GroupedDataset ds = GenerateGrouped(config);
  size_t min_size = SIZE_MAX, max_size = 0;
  for (const core::Group& g : ds.groups()) {
    min_size = std::min(min_size, g.size());
    max_size = std::max(max_size, g.size());
  }
  // Poisson(100): very unlikely to leave [40, 180].
  EXPECT_GT(min_size, 40u);
  EXPECT_LT(max_size, 180u);
}

TEST(GroupsGenTest, ZipfSizesAreSkewed) {
  GroupedWorkloadConfig config;
  config.num_records = 10000;
  config.avg_records_per_group = 100;
  config.size_model = GroupSizeModel::kZipf;
  config.zipf_theta = 1.0;
  core::GroupedDataset ds = GenerateGrouped(config);
  size_t max_size = 0;
  for (const core::Group& g : ds.groups()) {
    max_size = std::max(max_size, g.size());
  }
  // The top group should hold far more than the average share.
  EXPECT_GT(max_size, 500u);
}

TEST(GroupsGenTest, DeterministicInSeed) {
  GroupedWorkloadConfig config;
  config.num_records = 300;
  config.seed = 123;
  core::GroupedDataset a = GenerateGrouped(config);
  core::GroupedDataset b = GenerateGrouped(config);
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (size_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.group(g).data(), b.group(g).data());
  }
  config.seed = 124;
  core::GroupedDataset c = GenerateGrouped(config);
  bool any_diff = false;
  for (size_t g = 0; g < std::min(a.num_groups(), c.num_groups()); ++g) {
    if (a.group(g).data() != c.group(g).data()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GroupsGenTest, ToTableShape) {
  GroupedWorkloadConfig config;
  config.num_records = 100;
  config.avg_records_per_group = 10;
  config.dims = 3;
  core::GroupedDataset ds = GenerateGrouped(config);
  Table t = GroupedDatasetToTable(ds);
  EXPECT_EQ(t.num_rows(), 100u);
  EXPECT_EQ(t.num_columns(), 5u);  // class, num, a0..a2
  EXPECT_EQ(t.schema().column(0).name, "class");
  EXPECT_EQ(t.schema().column(1).name, "num");
  // num matches the group cardinality of the row's class.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string label = t.at(r, 0).AsString();
    size_t gid = ds.FindByLabel(label).value();
    EXPECT_EQ(t.at(r, 1).AsInt64(),
              static_cast<int64_t>(ds.group(gid).size()));
  }
}

TEST(GroupsGenTest, NumGroupsHelper) {
  GroupedWorkloadConfig config;
  config.num_records = 10;
  config.avg_records_per_group = 100;
  EXPECT_EQ(config.num_groups(), 1u);  // never zero
  config.num_records = 1000;
  EXPECT_EQ(config.num_groups(), 10u);
}

}  // namespace
}  // namespace galaxy::datagen
