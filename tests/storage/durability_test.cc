// Crash-recovery scenario tests for the DurabilityManager over MemEnv:
// every test shapes a data directory (possibly mid-crash), reopens it, and
// checks the recovered catalog equals exactly the acked updates.

#include "storage/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "relation/csv.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "sql/catalog.h"
#include "storage/env.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace galaxy::storage {
namespace {

using galaxy::ColumnDef;
using galaxy::Schema;
using galaxy::Table;
using galaxy::TableBuilder;
using galaxy::ValueType;

Schema TestSchema() {
  return Schema({ColumnDef{"g", ValueType::kString},
                 ColumnDef{"x", ValueType::kInt64}});
}

Table SeedTable() {
  TableBuilder builder(TestSchema());
  for (const char* row : {"a,1", "b,2"}) {
    auto parsed = galaxy::ParseCsvRowForSchema(TestSchema(), row);
    EXPECT_TRUE(parsed.ok());
    builder.AddRow(*std::move(parsed));
  }
  return builder.Build();
}

UpdateRecord Insert(const std::string& row) {
  UpdateRecord record;
  record.table = "t";
  record.insert = true;
  record.row_csv = row;
  return record;
}

UpdateRecord Remove(const std::string& row) {
  UpdateRecord record = Insert(row);
  record.insert = false;
  return record;
}

std::vector<std::string> TableRows(const sql::Database& db) {
  std::vector<std::string> out;
  auto table = db.GetTable("t");
  if (!table.ok()) return out;
  for (const Row& row : (*table)->DebugRows()) {
    out.push_back(row[0].AsString() + "," + std::to_string(row[1].AsInt64()));
  }
  return out;
}

std::unique_ptr<DurabilityManager> MustOpen(Env* env, sql::Database* db) {
  auto manager = DurabilityManager::Open(env, "data", db,
                                         DurabilityOptions{});
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  return manager.ok() ? std::move(*manager) : nullptr;
}

TEST(Durability, BootstrapThenRecover) {
  std::unique_ptr<Env> env = NewMemEnv();
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    EXPECT_EQ(manager->recovery_info().generation, 0u);
    EXPECT_EQ(db.num_tables(), 0u);

    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
    EXPECT_EQ(manager->generation(), 1u);
  }
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->recovery_info().generation, 1u);
  EXPECT_EQ(manager->recovery_info().tables_restored, 1u);
  EXPECT_EQ(TableRows(db), std::vector<std::string>({"a,1", "b,2"}));
}

TEST(Durability, LoggedUpdatesReplayInOrder) {
  std::unique_ptr<Env> env = NewMemEnv();
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
    // Log without applying — exactly what a crash after LogUpdate but
    // before the in-memory apply leaves behind.
    ASSERT_TRUE(manager->LogUpdate(Insert("c,3")).ok());
    ASSERT_TRUE(manager->LogUpdate(Remove("a,1")).ok());
    ASSERT_TRUE(manager->LogUpdate(Insert("d,4")).ok());
  }
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->recovery_info().replayed_records, 3u);
  EXPECT_EQ(TableRows(db), std::vector<std::string>({"b,2", "c,3", "d,4"}));
}

TEST(Durability, LongWalReplaysAppendsAndRemovesInOrder) {
  // Replay installs one table version per record: a run of inserts appends
  // at the column buffers' tip, removes copy the typed columns minus one
  // row, and the inserts after them append to the removes' buffers.
  std::unique_ptr<Env> env = NewMemEnv();
  std::vector<std::string> expected = {"a,1", "b,2"};
  size_t logged = 0;
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
    auto log = [&](const UpdateRecord& record) {
      ASSERT_TRUE(manager->LogUpdate(record).ok());
      ++logged;
      if (record.insert) {
        expected.push_back(record.row_csv);
      } else {
        auto it = std::find(expected.begin(), expected.end(), record.row_csv);
        ASSERT_NE(it, expected.end()) << record.row_csv;
        expected.erase(it);
      }
    };
    for (int i = 0; i < 300; ++i) {
      log(Insert("r" + std::to_string(i) + "," + std::to_string(i)));
      if (i == 40 || i == 200) log(Insert("dup,7"));
    }
    for (const char* row : {"r10,10", "dup,7", "r299,299", "a,1", "r150,150"}) {
      log(Remove(row));
    }
    for (int i = 0; i < 50; ++i) {
      log(Insert("s" + std::to_string(i) + "," + std::to_string(i)));
    }
    log(Remove("s0,0"));
    log(Insert("tail,1"));
  }
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->recovery_info().replayed_records, logged);
  EXPECT_EQ(TableRows(db), expected);
}

TEST(Durability, TornWalTailIsTruncatedAndAppendsContinue) {
  std::unique_ptr<Env> env = NewMemEnv();
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
    ASSERT_TRUE(manager->LogUpdate(Insert("c,3")).ok());
  }
  // Tear the log: append half of a valid record, as a crash mid-write
  // would.
  std::string torn;
  EncodeWalRecord(WalRecordType::kUpdate, EncodeUpdateRecord(Insert("d,4")),
                  &torn);
  {
    auto file = env->NewWritableFile("data/wal-1.log",
                                     Env::WriteMode::kAppend);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(
                    std::string_view(torn).substr(0, torn.size() - 3))
                    .ok());
  }
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    EXPECT_TRUE(manager->recovery_info().wal_tail_truncated);
    EXPECT_EQ(manager->recovery_info().replayed_records, 1u);
    EXPECT_EQ(TableRows(db), std::vector<std::string>({"a,1", "b,2", "c,3"}));
    // The tail is gone: appending now must produce a decodable log.
    ASSERT_TRUE(manager->LogUpdate(Insert("e,5")).ok());
  }
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  EXPECT_FALSE(manager->recovery_info().wal_tail_truncated);
  EXPECT_EQ(TableRows(db),
            std::vector<std::string>({"a,1", "b,2", "c,3", "e,5"}));
}

TEST(Durability, DoubleCrashDuringWalTruncation) {
  // First crash tears the WAL tail; the second crash interrupts recovery's
  // own TruncateFile, leaving any byte count between the valid prefix and
  // the original size. Every such intermediate state must recover to the
  // same catalog.
  std::unique_ptr<Env> env = NewMemEnv();
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
    ASSERT_TRUE(manager->LogUpdate(Insert("c,3")).ok());
  }
  auto valid = env->FileSize("data/wal-1.log");
  ASSERT_TRUE(valid.ok());
  std::string torn;
  EncodeWalRecord(WalRecordType::kUpdate, EncodeUpdateRecord(Insert("d,4")),
                  &torn);
  {
    auto file = env->NewWritableFile("data/wal-1.log",
                                     Env::WriteMode::kAppend);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(
                    std::string_view(torn).substr(0, torn.size() - 2))
                    .ok());
  }
  auto full = env->FileSize("data/wal-1.log");
  ASSERT_TRUE(full.ok());

  for (uint64_t crash_at = *valid; crash_at <= *full; ++crash_at) {
    // Clone the torn directory state at this truncation progress point.
    std::unique_ptr<Env> clone = NewMemEnv();
    ASSERT_TRUE(clone->CreateDirs("data").ok());
    auto listing = env->ListDir("data");
    ASSERT_TRUE(listing.ok());
    for (const std::string& name : *listing) {
      auto content = env->ReadFileToString("data/" + name);
      ASSERT_TRUE(content.ok());
      auto file = clone->NewWritableFile("data/" + name,
                                         Env::WriteMode::kTruncate);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(*content).ok());
    }
    ASSERT_TRUE(clone->TruncateFile("data/wal-1.log", crash_at).ok());

    sql::Database db;
    auto manager = MustOpen(clone.get(), &db);
    ASSERT_NE(manager, nullptr) << "truncation crash point " << crash_at;
    EXPECT_EQ(manager->recovery_info().replayed_records, 1u);
    EXPECT_EQ(TableRows(db), std::vector<std::string>({"a,1", "b,2", "c,3"}))
        << "truncation crash point " << crash_at;
  }
}

TEST(Durability, SnapshotRotationDropsOldGeneration) {
  std::unique_ptr<Env> env = NewMemEnv();
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  db.Register("t", SeedTable());
  ASSERT_TRUE(manager->Bootstrap().ok());
  ASSERT_TRUE(manager->LogUpdate(Insert("c,3")).ok());
  ASSERT_TRUE(ApplyUpdateRecord(&db, Insert("c,3")).ok());

  ASSERT_TRUE(manager->Snapshot().ok());
  EXPECT_EQ(manager->generation(), 2u);
  auto listing = env->ListDir("data");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(*listing,
            std::vector<std::string>({"snapshot-2.gal", "wal-2.log"}));

  // More updates land in the new WAL; recovery = snapshot-2 + wal-2.
  ASSERT_TRUE(manager->LogUpdate(Insert("d,4")).ok());
  sql::Database recovered;
  auto reopened = DurabilityManager::Open(env.get(), "data", &recovered,
                                          DurabilityOptions{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_info().generation, 2u);
  EXPECT_EQ((*reopened)->recovery_info().replayed_records, 1u);
  EXPECT_EQ(TableRows(recovered),
            std::vector<std::string>({"a,1", "b,2", "c,3", "d,4"}));
}

TEST(Durability, CorruptNewestSnapshotFallsBackAGeneration) {
  std::unique_ptr<Env> env = NewMemEnv();
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
    ASSERT_TRUE(manager->LogUpdate(Insert("c,3")).ok());
  }
  // A torn rotation: snapshot-2 exists but is garbage, generation 1 is
  // still complete. (The real writer renames only complete snapshots into
  // place; this models a corrupted disk or a partial rename on a
  // non-atomic filesystem.)
  {
    auto file =
        env->NewWritableFile("data/snapshot-2.gal", Env::WriteMode::kTruncate);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("GALSNAP1 this is not a snapshot").ok());
  }
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->recovery_info().generation, 1u);
  EXPECT_EQ(manager->recovery_info().replayed_records, 1u);
  EXPECT_FALSE(manager->recovery_info().warnings.empty());
  EXPECT_EQ(TableRows(db), std::vector<std::string>({"a,1", "b,2", "c,3"}));
  // The unreadable snapshot was swept so it cannot shadow later
  // generations forever.
  auto exists = env->FileExists("data/snapshot-2.gal");
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST(Durability, StaleTmpFilesAreSwept) {
  std::unique_ptr<Env> env = NewMemEnv();
  {
    sql::Database db;
    auto manager = MustOpen(env.get(), &db);
    ASSERT_NE(manager, nullptr);
    db.Register("t", SeedTable());
    ASSERT_TRUE(manager->Bootstrap().ok());
  }
  {
    auto file = env->NewWritableFile("data/snapshot-2.gal.tmp",
                                     Env::WriteMode::kTruncate);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("torn snapshot write").ok());
  }
  sql::Database db;
  auto manager = MustOpen(env.get(), &db);
  ASSERT_NE(manager, nullptr);
  auto exists = env->FileExists("data/snapshot-2.gal.tmp");
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST(Durability, OpenRequiresEmptyDatabase) {
  std::unique_ptr<Env> env = NewMemEnv();
  sql::Database db;
  db.Register("t", SeedTable());
  auto manager =
      DurabilityManager::Open(env.get(), "data", &db, DurabilityOptions{});
  EXPECT_FALSE(manager.ok());
}

}  // namespace
}  // namespace galaxy::storage
