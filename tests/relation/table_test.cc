#include "relation/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "datagen/movies.h"

namespace galaxy {
namespace {

Table SmallTable() {
  TableBuilder b{Schema({{"name", ValueType::kString},
                         {"score", ValueType::kDouble},
                         {"count", ValueType::kInt64}})};
  b.AddRow({"a", 1.5, 10}).AddRow({"b", 2.5, 20}).AddRow({"c", 3.5, 30});
  return b.Build();
}

TEST(TableTest, BasicShape) {
  Table t = SmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.at(1, 0), Value("b"));
  EXPECT_EQ(t.at(2, 2), Value(30));
}

TEST(TableTest, NamedCellAccess) {
  Table t = SmallTable();
  EXPECT_EQ(t.at(0, "score").value(), Value(1.5));
  EXPECT_FALSE(t.at(0, "missing").ok());
  EXPECT_FALSE(t.at(99, "score").ok());
}

TEST(TableBuilderTest, RejectsArityMismatch) {
  TableBuilder b{Schema({{"x", ValueType::kInt64}})};
  Status s = b.TryAddRow({Value(1), Value(2)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TableBuilderTest, RejectsTypeMismatch) {
  TableBuilder b{Schema({{"x", ValueType::kInt64}})};
  EXPECT_EQ(b.TryAddRow({Value("nope")}).code(), StatusCode::kTypeError);
  // Double into int column is not widened.
  EXPECT_EQ(b.TryAddRow({Value(1.5)}).code(), StatusCode::kTypeError);
}

TEST(TableBuilderTest, WidensIntToDouble) {
  TableBuilder b{Schema({{"x", ValueType::kDouble}})};
  ASSERT_TRUE(b.TryAddRow({Value(3)}).ok());
  Table t = b.Build();
  EXPECT_EQ(t.at(0, 0).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(t.at(0, 0).AsDouble(), 3.0);
}

TEST(TableBuilderTest, AcceptsNulls) {
  TableBuilder b{Schema({{"x", ValueType::kInt64}})};
  ASSERT_TRUE(b.TryAddRow({Value::Null()}).ok());
  EXPECT_TRUE(b.Build().at(0, 0).is_null());
}

TEST(TableTest, ExtractNumeric) {
  Table t = SmallTable();
  auto points = t.ExtractNumeric({"score", "count"});
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[0], (std::vector<double>{1.5, 10.0}));
  EXPECT_EQ((*points)[2], (std::vector<double>{3.5, 30.0}));
}

TEST(TableTest, ExtractNumericRejectsStrings) {
  Table t = SmallTable();
  EXPECT_FALSE(t.ExtractNumeric({"name"}).ok());
}

TEST(TableTest, ExtractNumericRejectsUnknownColumn) {
  Table t = SmallTable();
  EXPECT_FALSE(t.ExtractNumeric({"nope"}).ok());
}

TEST(TableTest, MovieTableMatchesFigure1) {
  Table t = datagen::MovieTable();
  EXPECT_EQ(t.num_rows(), 10u);
  EXPECT_EQ(t.num_columns(), 5u);
  EXPECT_EQ(t.at(3, "Title").value(), Value("Pulp Fiction"));
  EXPECT_EQ(t.at(3, "Pop").value(), Value(557));
  EXPECT_EQ(t.at(6, "Qual").value(), Value(9.2));
  EXPECT_EQ(t.at(8, "Director").value(), Value("Wiseau"));
}

TEST(TableTest, ToStringContainsHeaderAndRows) {
  Table t = SmallTable();
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(TableTest, ToStringTruncates) {
  Table t = SmallTable();
  std::string s = t.ToString(/*max_rows=*/1);
  EXPECT_NE(s.find("2 more rows"), std::string::npos);
}

// ---- Table versions: copies share column buffers (relation/column.h). ----

Schema VersionSchema() {
  return Schema({{"name", ValueType::kString},
                 {"score", ValueType::kDouble},
                 {"count", ValueType::kInt64}});
}

Row VersionRow(int i) {
  return {"r" + std::to_string(i), i + 0.5, int64_t{i}};
}

// Rows 0..n-1 of VersionRow.
std::vector<Row> VersionRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back(VersionRow(i));
  return rows;
}

// The boxed reference FindRow: first row equal under Value::operator==.
std::optional<size_t> BoxedFind(const Table& t, const Row& probe) {
  const std::vector<Row> rows = t.DebugRows();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != probe.size()) continue;
    bool match = true;
    for (size_t c = 0; c < probe.size(); ++c) {
      if (!(rows[r][c] == probe[c])) match = false;
    }
    if (match) return r;
  }
  return std::nullopt;
}

TEST(TableVersionTest, AppendLeavesTheSourceVersionIntact) {
  const Table a(VersionSchema(), VersionRows(3));
  auto b = a.CopyWithAppended(VersionRow(3));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(a.DebugRows(), VersionRows(3));
  EXPECT_EQ(b->DebugRows(), VersionRows(4));
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column(c).size(), 3u);
  }
  EXPECT_EQ(a.column(0).strings().size(), 3u);
  EXPECT_EQ(a.column(1).doubles().size(), 3u);
  EXPECT_EQ(a.column(2).ints().size(), 3u);

  auto numeric = a.ExtractNumeric({"score", "count"});
  ASSERT_TRUE(numeric.ok());
  EXPECT_EQ(numeric->size(), 3u);
  auto slices = a.ExtractNumericColumns({"score", "count"});
  ASSERT_TRUE(slices.ok());
  ASSERT_EQ(slices->slices.size(), 2u);
  EXPECT_EQ(slices->slices[0].size(), 3u);
  EXPECT_EQ(slices->slices[1].size(), 3u);
  auto b_slices = b->ExtractNumericColumns({"score"});
  ASSERT_TRUE(b_slices.ok());
  EXPECT_EQ(b_slices->slices[0].size(), 4u);
  EXPECT_EQ(b_slices->slices[0][3], 3.5);
}

TEST(TableVersionTest, AppendingToANonTipVersionIsIndependent) {
  const Table a(VersionSchema(), VersionRows(3));
  auto b = a.CopyWithAppended(VersionRow(10));
  ASSERT_TRUE(b.ok());
  auto c = a.CopyWithAppended(VersionRow(20));  // a is no longer the tip
  ASSERT_TRUE(c.ok());
  auto b2 = b->CopyWithAppended(VersionRow(11));  // b still is
  ASSERT_TRUE(b2.ok());

  std::vector<Row> expect_b = VersionRows(3);
  expect_b.push_back(VersionRow(10));
  std::vector<Row> expect_c = VersionRows(3);
  expect_c.push_back(VersionRow(20));
  std::vector<Row> expect_b2 = expect_b;
  expect_b2.push_back(VersionRow(11));
  EXPECT_EQ(a.DebugRows(), VersionRows(3));
  EXPECT_EQ(b->DebugRows(), expect_b);
  EXPECT_EQ(c->DebugRows(), expect_c);
  EXPECT_EQ(b2->DebugRows(), expect_b2);
}

TEST(TableVersionTest, EveryVersionOfAGrowingChainKeepsItsPrefix) {
  // 200 appends cross several capacity doublings; forks off older
  // versions interleave with the chain.
  std::vector<Table> versions;
  versions.emplace_back(VersionSchema(), VersionRows(1));
  std::vector<Table> forks;
  for (int i = 1; i < 200; ++i) {
    auto next = versions.back().CopyWithAppended(VersionRow(i));
    ASSERT_TRUE(next.ok());
    versions.push_back(*std::move(next));
    if (i % 37 == 0) {
      auto fork = versions[static_cast<size_t>(i / 2)].CopyWithAppended(
          VersionRow(-i));
      ASSERT_TRUE(fork.ok());
      forks.push_back(*std::move(fork));
    }
  }
  for (size_t v = 0; v < versions.size(); ++v) {
    ASSERT_EQ(versions[v].DebugRows(), VersionRows(static_cast<int>(v) + 1))
        << "version " << v;
  }
  for (const Table& fork : forks) {
    const int i = -static_cast<int>(fork.at(fork.num_rows() - 1, 2).AsInt64());
    std::vector<Row> expect = VersionRows(i / 2 + 1);
    expect.push_back(VersionRow(-i));
    EXPECT_EQ(fork.DebugRows(), expect) << "fork " << i;
  }
}

TEST(TableVersionTest, DiscardedAppendDoesNotLeakIntoTheNextOne) {
  const Table a(VersionSchema(), VersionRows(5));
  {
    auto discarded = a.CopyWithAppended(VersionRow(99));  // claims the tip
    ASSERT_TRUE(discarded.ok());
  }
  auto kept = a.CopyWithAppended(VersionRow(5));
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->DebugRows(), VersionRows(6));
  EXPECT_EQ(a.DebugRows(), VersionRows(5));
}

TEST(TableVersionTest, NullBitmapsSurviveAcrossVersions) {
  const Schema schema({{"x", ValueType::kInt64}, {"s", ValueType::kString}});
  // 70 rows: the bitmap spans two words; every 7th x is NULL.
  std::vector<Row> rows;
  for (int i = 0; i < 70; ++i) {
    rows.push_back({i % 7 == 0 ? Value::Null() : Value(int64_t{i}),
                    "s" + std::to_string(i)});
  }
  const Table a(schema, rows);
  // b takes a's tip with a valid cell; c forks from a with a NULL in the
  // same bitmap word, so its copy must not inherit b's bit.
  auto b = a.CopyWithAppended({int64_t{70}, "b"});
  auto c = a.CopyWithAppended({Value::Null(), Value::Null()});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  auto d = c->CopyWithAppended({int64_t{71}, "d"});
  ASSERT_TRUE(d.ok());
  for (const Table* t : {&a, static_cast<const Table*>(&*b),
                         static_cast<const Table*>(&*c),
                         static_cast<const Table*>(&*d)}) {
    for (size_t r = 0; r < 70; ++r) {
      EXPECT_EQ(t->column(0).is_null(r), r % 7 == 0) << "row " << r;
      EXPECT_FALSE(t->column(1).is_null(r));
    }
  }
  EXPECT_EQ(a.column(0).null_count(), 10u);
  EXPECT_FALSE(b->column(0).is_null(70));
  EXPECT_EQ(b->column(0).null_count(), 10u);
  EXPECT_TRUE(c->column(0).is_null(70));
  EXPECT_TRUE(c->column(1).is_null(70));
  EXPECT_EQ(c->column(0).null_count(), 11u);
  EXPECT_TRUE(d->column(0).is_null(70));
  EXPECT_FALSE(d->column(0).is_null(71));
  EXPECT_EQ(d->at(71, 0), Value(int64_t{71}));

  // The first NULL of a column with no bitmap yet, appended to a shared
  // version, leaves the other versions all-valid.
  auto e = b->CopyWithAppended({int64_t{1}, Value::Null()});
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->column(1).is_null(71));
  EXPECT_FALSE(b->column(1).has_nulls());

  // Removing a row shifts the bits after it.
  auto f = d->CopyWithRemoved({int64_t{1}, "s1"});
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f->num_rows(), 71u);
  for (size_t r = 0; r < 71; ++r) {
    const size_t original = r < 1 ? r : r + 1;
    EXPECT_EQ(f->column(0).is_null(r), d->column(0).is_null(original))
        << "row " << r;
  }
}

TEST(TableFindRowTest, MatchesValueEqualityWithoutBoxing) {
  const Schema schema({{"i", ValueType::kInt64},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Table t(schema, {{int64_t{3}, 1.0, "a"},
                         {Value::Null(), 2.0, "b"},
                         {int64_t{0}, Value::Null(), Value::Null()},
                         {int64_t{5}, nan, "c"},
                         {int64_t{3}, 1.0, "a"}});

  const std::vector<Row> probes = {
      {3.0, int64_t{1}, "a"},                      // int column probed 3.0
      {int64_t{3}, 1.0, "a"},                      // exact
      {Value::Null(), 2.0, "b"},                   // NULL matches NULL
      {int64_t{0}, 2.0, "b"},                      // 0 is not the NULL slot
      {int64_t{0}, Value::Null(), Value::Null()},  // NULL string cell
      {int64_t{5}, nan, "c"},                      // NaN matches nothing
      {int64_t{3}, 1.0, int64_t{1}},               // string probed with int
      {"3", 1.0, "a"},                             // int probed with string
      {3.5, 1.0, "a"},                             // no int equals 3.5
      {int64_t{3}, 1.0},                           // arity mismatch
  };
  const std::vector<std::optional<size_t>> expected = {
      0, 0, 1, std::nullopt, 2, std::nullopt,
      std::nullopt, std::nullopt, std::nullopt, std::nullopt};
  for (size_t p = 0; p < probes.size(); ++p) {
    EXPECT_EQ(t.FindRow(probes[p]), expected[p]) << "probe " << p;
    EXPECT_EQ(t.FindRow(probes[p]), BoxedFind(t, probes[p])) << "probe " << p;
  }
}

TEST(TableFindRowTest, RemoveTakesTheFirstMatchAndKeepsOrder) {
  const Schema schema({{"g", ValueType::kString}, {"x", ValueType::kInt64}});
  const Table t(schema, {{"a", int64_t{1}},
                         {"dup", int64_t{7}},
                         {"b", Value::Null()},
                         {"dup", int64_t{7}},
                         {"c", int64_t{3}}});
  auto once = t.CopyWithRemoved({"dup", 7.0});  // int column probed 7.0
  ASSERT_TRUE(once.ok());
  const std::vector<Row> expect_once = {{"a", int64_t{1}},
                                        {"b", Value::Null()},
                                        {"dup", int64_t{7}},
                                        {"c", int64_t{3}}};
  EXPECT_EQ(once->DebugRows(), expect_once);
  EXPECT_EQ(t.num_rows(), 5u);

  auto twice = once->CopyWithRemoved({"dup", int64_t{7}});
  ASSERT_TRUE(twice.ok());
  auto no_null = twice->CopyWithRemoved({"b", Value::Null()});
  ASSERT_TRUE(no_null.ok());
  const std::vector<Row> expect_rest = {{"a", int64_t{1}}, {"c", int64_t{3}}};
  EXPECT_EQ(no_null->DebugRows(), expect_rest);
  EXPECT_FALSE(no_null->column(1).has_nulls());

  EXPECT_EQ(twice->CopyWithRemoved({"dup", int64_t{7}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(t.CopyWithRemoved({"a", "1"}).status().code(),
            StatusCode::kNotFound);

  // An append after a remove lands in the remove's fresh buffer.
  auto appended = no_null->CopyWithAppended({"d", int64_t{4}});
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->num_rows(), 3u);
  EXPECT_EQ(no_null->num_rows(), 2u);
  EXPECT_EQ(appended->at(2, 0), Value("d"));
}

}  // namespace
}  // namespace galaxy
