#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "relation/schema.h"
#include "relation/table.h"
#include "sql/catalog.h"

namespace galaxy::sql {
namespace {

Table OneCellTable(int64_t cell) {
  Schema schema({{"a", ValueType::kInt64}});
  return Table(schema, {{Value(cell)}});
}

TEST(CatalogVersionTest, RegisterReturnsMonotonicVersions) {
  Database db;
  uint64_t v1 = db.Register("t", OneCellTable(1));
  uint64_t v2 = db.Register("u", OneCellTable(2));
  uint64_t v3 = db.Register("t", OneCellTable(3));  // replace bumps
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
  ASSERT_TRUE(db.TableVersion("t").ok());
  EXPECT_EQ(*db.TableVersion("t"), v3);
  EXPECT_EQ(*db.TableVersion("u"), v2);
  EXPECT_FALSE(db.TableVersion("missing").ok());
}

TEST(CatalogSnapshotTest, HeldSnapshotSurvivesReplacement) {
  Database db;
  db.Register("t", OneCellTable(1));
  auto snapshot = db.GetTable("t");
  ASSERT_TRUE(snapshot.ok());
  db.Register("t", OneCellTable(99));
  // The old snapshot still reads the old data; a fresh read sees the new.
  EXPECT_EQ((**snapshot).at(0, 0), Value(int64_t{1}));
  auto fresh = db.GetTable("t");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((**fresh).at(0, 0), Value(int64_t{99}));
}

TEST(CatalogConcurrencyTest, ReadersNeverSeeTornState) {
  Database db;
  db.Register("t", OneCellTable(0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      while (!stop.load()) {
        auto version = db.TableVersion("t");
        auto snapshot = db.GetTable("t");
        if (!version.ok() || !snapshot.ok()) {
          failed.store(true);
          return;
        }
        // Versions only move forward from any single reader's view.
        if (*version < last_version) {
          failed.store(true);
          return;
        }
        last_version = *version;
        // The snapshot is internally consistent: exactly one row whose
        // cell is a valid written value.
        const Table& t = **snapshot;
        if (t.num_rows() != 1 || t.at(0, 0).type() != ValueType::kInt64) {
          failed.store(true);
          return;
        }
        db.TableNames();
        reads.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    // Start writing only once a reader runs, so the reads overlap the
    // writes even when the machine is too loaded to schedule readers early.
    while (reads.load() == 0 && !failed.load()) std::this_thread::yield();
    for (int64_t i = 1; i <= 200; ++i) {
      db.Register("t", OneCellTable(i));
      std::this_thread::yield();
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads.load(), 0u);
  ASSERT_TRUE(db.GetTable("t").ok());
  EXPECT_EQ((**db.GetTable("t")).at(0, 0), Value(int64_t{200}));
}

TEST(CatalogConcurrencyTest, ConcurrentWritersToDistinctTables) {
  Database db;
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&db, w] {
      for (int i = 0; i < 50; ++i) {
        db.Register("t" + std::to_string(w), OneCellTable(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(db.num_tables(), 4u);
  // 200 registrations happened; the final version reflects all of them.
  uint64_t max_version = 0;
  for (const std::string& name : db.TableNames()) {
    max_version = std::max(max_version, *db.TableVersion(name));
  }
  EXPECT_EQ(max_version, 200u);
}

TEST(CatalogMoveTest, MoveTransfersTablesAndVersions) {
  Database db;
  db.Register("t", OneCellTable(7));
  Database moved(std::move(db));
  ASSERT_TRUE(moved.GetTable("t").ok());
  EXPECT_EQ(*moved.TableVersion("t"), 1u);
  Database assigned;
  assigned = std::move(moved);
  EXPECT_EQ((**assigned.GetTable("t")).at(0, 0), Value(int64_t{7}));
}

}  // namespace
}  // namespace galaxy::sql
