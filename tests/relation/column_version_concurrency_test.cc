// Concurrency test for the shared column buffers behind copy-on-write table
// versions (relation/column.h): readers pin catalog snapshots and re-read
// their own num_rows() prefix while a writer installs new versions through
// CopyWithAppended / CopyWithRemoved + Register. Appends at a buffer's tip
// write past every pinned prefix, so a reader must never see a cell of its
// version change or a row torn between columns. Built into the TSan CI job.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/table.h"
#include "sql/catalog.h"

namespace galaxy {
namespace {

Schema CycleSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"half", ValueType::kDouble},
                 {"label", ValueType::kString},
                 {"maybe", ValueType::kInt64}});
}

// Every cell is a function of `id`, so a reader can check each row alone;
// `maybe` is NULL on every fifth id to keep the validity bitmaps busy.
Row CycleRow(int64_t id) {
  return {id, static_cast<double>(id) / 2.0, "row-" + std::to_string(id),
          id % 5 == 0 ? Value::Null() : Value(id * 3)};
}

// Checks every row of `t` against CycleRow and returns a checksum of the
// pinned version, or nullopt on the first inconsistent row.
std::optional<uint64_t> Checksum(const Table& t) {
  const Column& id = t.column(0);
  const Column& half = t.column(1);
  const Column& label = t.column(2);
  const Column& maybe = t.column(3);
  std::span<const int64_t> ids = id.ints();
  std::span<const double> halves = half.doubles();
  std::span<const std::string> labels = label.strings();
  std::span<const int64_t> maybes = maybe.ints();
  if (ids.size() != t.num_rows() || labels.size() != t.num_rows()) {
    return std::nullopt;
  }
  uint64_t sum = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const int64_t v = ids[r];
    if (id.is_null(r) || halves[r] != static_cast<double>(v) / 2.0 ||
        labels[r] != "row-" + std::to_string(v) ||
        maybe.is_null(r) != (v % 5 == 0) ||
        (!maybe.is_null(r) && maybes[r] != v * 3)) {
      return std::nullopt;
    }
    sum = sum * 31 + static_cast<uint64_t>(v);
  }
  return sum;
}

TEST(ColumnVersionConcurrencyTest, PinnedPrefixesStayStableUnderWrites) {
  sql::Database db;
  int64_t next_id = 0;
  std::vector<Row> seed;
  for (; next_id < 8; ++next_id) seed.push_back(CycleRow(next_id));
  db.Register("t", Table(CycleSchema(), seed));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto pinned = db.GetTable("t");
        if (!pinned.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::optional<uint64_t> first = Checksum(**pinned);
        std::this_thread::yield();  // let the writer append past us
        const std::optional<uint64_t> second = Checksum(**pinned);
        if (!first.has_value() || first != second) failures.fetch_add(1);
        checks.fetch_add(1);
      }
    });
  }

  // Alternate bursts of 100 insert-only cycles with 100 cycles that remove
  // two rows per insert: the table swings between about 8 and 108 rows, so
  // tip appends repeatedly fill a buffer and double into a new one.
  Rng rng(17);
  std::vector<int64_t> live;
  for (int64_t id = 0; id < next_id; ++id) live.push_back(id);
  constexpr int kCycles = 1200;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::shared_ptr<const Table> current = *db.GetTable("t");
    auto inserted = current->CopyWithAppended(CycleRow(next_id));
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    live.push_back(next_id++);
    db.Register("t", *std::move(inserted));
    const int removes = (cycle / 100) % 2 == 1 ? 2 : 0;
    for (int k = 0; k < removes && live.size() > 1; ++k) {
      const size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      current = *db.GetTable("t");
      auto removed = current->CopyWithRemoved(CycleRow(live[victim]));
      ASSERT_TRUE(removed.ok()) << removed.status().ToString();
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      db.Register("t", *std::move(removed));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checks.load(), 0u);
  std::shared_ptr<const Table> final_table = *db.GetTable("t");
  ASSERT_EQ(final_table->num_rows(), live.size());
  for (size_t r = 0; r < live.size(); ++r) {
    EXPECT_EQ(final_table->at(r, 0), Value(live[r])) << "row " << r;
  }
  EXPECT_TRUE(Checksum(*final_table).has_value());
}

}  // namespace
}  // namespace galaxy
