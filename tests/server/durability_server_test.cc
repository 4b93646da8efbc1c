// /update's durability contract at the HTTP layer, exercised through the
// Server::Handle seam (no sockets): ack-after-WAL ordering, 503 on a
// poisoned log, the durability metrics scrape, the coalesced (lazy)
// incremental-view maintenance under update bursts, and how
// EnableSkylineView seeds the view from a table.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "relation/csv.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "server/http.h"
#include "server/server.h"
#include "sql/catalog.h"
#include "storage/durability.h"
#include "storage/env.h"
#include "storage/fault_env.h"

namespace galaxy::server {
namespace {

using galaxy::ColumnDef;
using galaxy::Schema;
using galaxy::TableBuilder;
using galaxy::ValueType;
using galaxy::storage::DurabilityManager;
using galaxy::storage::DurabilityOptions;
using galaxy::storage::Env;
using galaxy::storage::FaultInjectionEnv;
using galaxy::storage::NewMemEnv;

Schema TestSchema() {
  return Schema({ColumnDef{"g", ValueType::kString},
                 ColumnDef{"x", ValueType::kInt64},
                 ColumnDef{"y", ValueType::kDouble}});
}

HttpRequest Req(const std::string& raw) {
  HttpRequest request;
  const HttpParseResult parsed = ParseHttpRequest(raw, &request);
  EXPECT_EQ(parsed.state, ParseState::kDone);
  return request;
}

HttpRequest UpdateReq(const std::string& op, const std::string& row) {
  return Req("POST /update?table=t&op=" + op +
             " HTTP/1.1\r\nContent-Length: " + std::to_string(row.size()) +
             "\r\n\r\n" + row);
}

/// Value of an un-labelled counter/gauge line in a Prometheus scrape.
double MetricValue(const std::string& scrape, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t pos = scrape.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(scrape.substr(pos + needle.size()));
}

class DurabilityServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = NewMemEnv();
    env_ = std::make_unique<FaultInjectionEnv>(base_.get());
    db_ = std::make_unique<sql::Database>();
    ServerOptions options;
    options.snapshot_every = 0;
    server_ = std::make_unique<Server>(db_.get(), options);

    auto durability =
        DurabilityManager::Open(env_.get(), "data", db_.get(),
                                DurabilityOptions{},
                                server_->DurabilityHooks());
    ASSERT_TRUE(durability.ok()) << durability.status().ToString();
    durability_ = std::move(*durability);

    TableBuilder builder(TestSchema());
    for (const char* row : {"g0,10,1.5", "g1,20,2.5"}) {
      auto parsed = galaxy::ParseCsvRowForSchema(TestSchema(), row);
      ASSERT_TRUE(parsed.ok());
      builder.AddRow(*std::move(parsed));
    }
    db_->Register("t", builder.Build());
    ASSERT_TRUE(durability_->Bootstrap().ok());
    server_->AttachDurability(durability_.get());
  }

  void TearDown() override {
    // The manager must outlive the server's request handling; nothing is
    // in flight here, so releasing it first is safe and mirrors
    // galaxy_served's shutdown order.
    durability_.reset();
  }

  size_t NumRows() {
    auto table = db_->GetTable("t");
    EXPECT_TRUE(table.ok());
    return table.ok() ? (*table)->num_rows() : 0;
  }

  /// Recovers the on-disk state into a fresh catalog.
  std::vector<std::string> RecoveredRows() {
    env_->ClearFaults();
    sql::Database db;
    auto manager = DurabilityManager::Open(env_.get(), "data", &db,
                                           DurabilityOptions{});
    EXPECT_TRUE(manager.ok()) << manager.status().ToString();
    std::vector<std::string> out;
    auto table = db.GetTable("t");
    if (!table.ok()) return out;
    for (const Row& row : (*table)->DebugRows()) {
      out.push_back(row[0].AsString() + "," +
                    std::to_string(row[1].AsInt64()));
    }
    return out;
  }

  std::string Scrape() {
    return server_->Handle(Req("GET /metrics HTTP/1.1\r\n\r\n")).body;
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> env_;
  std::unique_ptr<sql::Database> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<DurabilityManager> durability_;
};

TEST_F(DurabilityServerTest, AckedUpdatesAreRecoverable) {
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g2,30,3.5")).status, 200);
  EXPECT_EQ(server_->Handle(UpdateReq("remove", "g0,10,1.5")).status, 200);
  EXPECT_EQ(NumRows(), 2u);

  const std::vector<std::string> rows = RecoveredRows();
  EXPECT_EQ(rows, std::vector<std::string>({"g1,20", "g2,30"}));
}

TEST_F(DurabilityServerTest, InvalidUpdatesAreRejectedBeforeTheLog) {
  // 400/404 must happen BEFORE the WAL append: a rejected request leaves
  // no trace on disk.
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "not-enough-columns")).status,
            400);
  EXPECT_EQ(
      server_->Handle(Req("POST /update?table=ghost&op=insert HTTP/1.1\r\n"
                          "Content-Length: 8\r\n\r\ng,1,1.5\n"))
          .status,
      404);
  EXPECT_EQ(server_->Handle(UpdateReq("remove", "zz,9,9.5")).status, 404);

  EXPECT_EQ(RecoveredRows(),
            std::vector<std::string>({"g0,10", "g1,20"}));
}

TEST_F(DurabilityServerTest, PoisonedWalReturns503AndLeavesCatalogAlone) {
  FaultInjectionEnv::Fault fault;
  fault.op = FaultInjectionEnv::Op::kAppend;
  fault.nth = env_->op_count(FaultInjectionEnv::Op::kAppend) + 1;
  fault.error = Status::Internal("injected EIO");
  env_->InjectFault(fault);

  const std::string scrape_before = Scrape();
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g2,30,3.5")).status, 503);
  EXPECT_EQ(NumRows(), 2u);  // not applied in memory either

  // Sticky: the log stays poisoned after the disk recovers.
  env_->ClearFaults();
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g3,40,4.5")).status, 503);

  const std::string scrape = Scrape();
  EXPECT_EQ(MetricValue(scrape, "galaxy_durability_errors_total") -
                MetricValue(scrape_before, "galaxy_durability_errors_total"),
            2.0);
  EXPECT_EQ(RecoveredRows(),
            std::vector<std::string>({"g0,10", "g1,20"}));
}

TEST_F(DurabilityServerTest, ScrapeCarriesDurabilitySeries) {
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g2,30,3.5")).status, 200);
  const std::string scrape = Scrape();

  for (const char* needle :
       {"galaxy_wal_appends_total", "galaxy_wal_bytes_total",
        "galaxy_wal_fsync_seconds_count", "galaxy_snapshot_duration_seconds",
        "galaxy_recovery_replayed_records", "galaxy_durability_errors_total",
        "galaxy_view_refreshes_total", "galaxy_view_deltas_total",
        "galaxy_view_pending_deltas"}) {
    EXPECT_NE(scrape.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(MetricValue(scrape, "galaxy_wal_appends_total"), 1.0);
  EXPECT_GT(MetricValue(scrape, "galaxy_wal_bytes_total"), 0.0);
}

TEST_F(DurabilityServerTest, SnapshotEveryRotatesInline) {
  ServerOptions options;
  options.snapshot_every = 3;
  Server server(db_.get(), options);
  server.AttachDurability(durability_.get());

  const uint64_t generation = durability_->generation();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server
                  .Handle(UpdateReq("insert",
                                    "g" + std::to_string(i) + ",5,5.5"))
                  .status,
              200);
  }
  EXPECT_EQ(durability_->generation(), generation + 1);
  // The rotated snapshot alone (WAL now empty) carries all acked rows.
  EXPECT_EQ(RecoveredRows().size(), 5u);
}

TEST_F(DurabilityServerTest, ViewRefreshesAreCoalescedAcrossUpdateBursts) {
  SkylineViewConfig config;
  config.table = "t";
  config.group_column = "g";
  config.attrs = {"x", "y"};
  ASSERT_TRUE(server_->EnableSkylineView(config).ok());

  constexpr int kBurst = 20;
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(server_
                  ->Handle(UpdateReq("insert", "g" + std::to_string(i % 4) +
                                                   "," + std::to_string(i) +
                                                   ",1.5"))
                  .status,
              200);
  }
  std::string scrape = Scrape();
  EXPECT_EQ(MetricValue(scrape, "galaxy_view_deltas_total"),
            static_cast<double>(kBurst));
  EXPECT_EQ(MetricValue(scrape, "galaxy_view_pending_deltas"),
            static_cast<double>(kBurst));
  EXPECT_EQ(MetricValue(scrape, "galaxy_view_refreshes_total"), 0.0);

  // One reader drains the whole burst: exactly one refresh, queue empty.
  EXPECT_EQ(server_->Handle(Req("GET /skyline HTTP/1.1\r\n\r\n")).status,
            200);
  scrape = Scrape();
  EXPECT_EQ(MetricValue(scrape, "galaxy_view_refreshes_total"), 1.0);
  EXPECT_EQ(MetricValue(scrape, "galaxy_view_pending_deltas"), 0.0);

  // A second read with nothing pending is free — still one refresh.
  EXPECT_EQ(server_->Handle(Req("GET /skyline HTTP/1.1\r\n\r\n")).status,
            200);
  EXPECT_EQ(MetricValue(Scrape(), "galaxy_view_refreshes_total"), 1.0);
}

TEST_F(DurabilityServerTest, RefusedInsertLeavesNoTraceInLaterVersions) {
  SkylineViewConfig config;
  config.table = "t";
  config.group_column = "g";
  config.attrs = {"x", "y"};
  ASSERT_TRUE(server_->EnableSkylineView(config).ok());
  std::shared_ptr<const Table> before = *db_->GetTable("t");

  // A NULL skyline attribute is refused by view validation after the new
  // version was built: its non-NULL cells already took the tip slot of
  // their shared column buffers, and the version is discarded.
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g8,,1.5")).status, 400);
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g8,8,")).status, 400);
  EXPECT_EQ(server_->Handle(UpdateReq("insert", "g9,9,7.5")).status, 200);

  std::shared_ptr<const Table> after = *db_->GetTable("t");
  const std::vector<Row> expect_before = {{"g0", int64_t{10}, 1.5},
                                          {"g1", int64_t{20}, 2.5}};
  std::vector<Row> expect_after = expect_before;
  expect_after.push_back({"g9", int64_t{9}, 7.5});
  EXPECT_EQ(before->DebugRows(), expect_before);
  EXPECT_EQ(after->DebugRows(), expect_after);
  for (size_t c = 0; c < after->num_columns(); ++c) {
    EXPECT_FALSE(after->column(c).has_nulls()) << "column " << c;
  }
  EXPECT_EQ(RecoveredRows(),
            std::vector<std::string>({"g0,10", "g1,20", "g9,9"}));
  EXPECT_EQ(server_->Handle(Req("GET /skyline HTTP/1.1\r\n\r\n")).status,
            200);
}

// ---- view seeding ----------------------------------------------------------

// A catalog holding table "t" of `schema`, one row per CSV line.
std::unique_ptr<sql::Database> CatalogWith(
    const Schema& schema, const std::vector<std::string>& rows) {
  TableBuilder builder(schema);
  for (const std::string& row : rows) {
    auto parsed = galaxy::ParseCsvRowForSchema(schema, row);
    EXPECT_TRUE(parsed.ok()) << row;
    if (parsed.ok()) builder.AddRow(*std::move(parsed));
  }
  auto db = std::make_unique<sql::Database>();
  db->Register("t", builder.Build());
  return db;
}

std::string SkylineBody(Server* server) {
  HttpResponse response = server->Handle(Req("GET /skyline HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(response.status, 200) << response.body;
  return response.body;
}

TEST(ViewSeedingTest, RefusesNullOrStringAttributeAndInstallsNoView) {
  std::unique_ptr<sql::Database> db =
      CatalogWith(TestSchema(), {"a,1,1.5", "b,,2.5"});
  Server server(db.get(), ServerOptions{});
  SkylineViewConfig config;
  config.table = "t";
  config.group_column = "g";
  config.attrs = {"x", "y"};
  EXPECT_FALSE(server.EnableSkylineView(config).ok());  // NULL in x
  EXPECT_EQ(server.Handle(Req("GET /skyline HTTP/1.1\r\n\r\n")).status,
            404);

  config.attrs = {"y", "g"};  // g is a STRING column
  EXPECT_FALSE(server.EnableSkylineView(config).ok());
  EXPECT_EQ(server.Handle(Req("GET /skyline HTTP/1.1\r\n\r\n")).status,
            404);
}

TEST(ViewSeedingTest, Int64GroupColumnKeepsLabelsAndFirstOccurrenceOrder) {
  const Schema schema({ColumnDef{"g", ValueType::kInt64},
                       ColumnDef{"x", ValueType::kInt64},
                       ColumnDef{"y", ValueType::kDouble}});
  // p(7 ≻ 30) = 2/4 = γ: no group is dominated at γ = 0.5, so the skyline
  // lists every group, by id, in order of first occurrence.
  std::unique_ptr<sql::Database> db = CatalogWith(
      schema, {"30,1,1.0", "7,2,2.0", "30,1,1.5", "12,3,0.5", "7,0,3.0"});
  Server server(db.get(), ServerOptions{});
  SkylineViewConfig config;
  config.table = "t";
  config.group_column = "g";
  config.attrs = {"x", "y"};
  ASSERT_TRUE(server.EnableSkylineView(config).ok());
  std::string body = SkylineBody(&server);
  EXPECT_NE(body.find("\"skyline\": [\"30\", \"7\", \"12\"]"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"num_groups\": 3"), std::string::npos) << body;

  // An /update labels its row the same way, so it lands in the seeded
  // group "7" (p(7 ≻ 30) rises to 4/6) instead of opening a fourth group.
  const std::string row = "7,5,5.0";
  ASSERT_EQ(server
                .Handle(Req("POST /update?table=t&op=insert HTTP/1.1\r\n"
                            "Content-Length: " +
                            std::to_string(row.size()) + "\r\n\r\n" + row))
                .status,
            200);
  body = SkylineBody(&server);
  EXPECT_NE(body.find("\"skyline\": [\"7\", \"12\"]"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"num_groups\": 3"), std::string::npos) << body;
}

TEST(ViewSeedingTest, MinimisedAttributeIsNegated) {
  std::unique_ptr<sql::Database> db =
      CatalogWith(TestSchema(), {"lo,1,1.0", "hi,2,2.0"});
  Server server(db.get(), ServerOptions{});
  SkylineViewConfig config;
  config.table = "t";
  config.group_column = "g";
  config.attrs = {"-x", "-y"};
  ASSERT_TRUE(server.EnableSkylineView(config).ok());
  // Smaller is better on both attributes: "lo" dominates "hi".
  std::string body = SkylineBody(&server);
  EXPECT_NE(body.find("\"skyline\": [\"lo\"]"), std::string::npos) << body;

  config.attrs = {"x", "y"};
  ASSERT_TRUE(server.EnableSkylineView(config).ok());
  body = SkylineBody(&server);
  EXPECT_NE(body.find("\"skyline\": [\"hi\"]"), std::string::npos) << body;
}

}  // namespace
}  // namespace galaxy::server
