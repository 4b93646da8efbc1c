#include "storage/durability.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "relation/csv.h"
#include "storage/coding.h"
#include "storage/snapshot.h"

namespace galaxy::storage {

namespace {

constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".gal";
constexpr std::string_view kWalPrefix = "wal-";
constexpr std::string_view kWalSuffix = ".log";

/// Parses "<prefix><decimal generation><suffix>"; nullopt-style via bool.
bool ParseGeneration(std::string_view name, std::string_view prefix,
                     std::string_view suffix, uint64_t* generation) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = value;
  return true;
}

}  // namespace

std::string EncodeUpdateRecord(const UpdateRecord& record) {
  std::string out;
  out.push_back(record.insert ? 1 : 0);
  PutLengthPrefixed(&out, record.table);
  out.append(record.row_csv);
  return out;
}

Result<UpdateRecord> DecodeUpdateRecord(std::string_view payload) {
  CodedReader reader(payload);
  uint8_t op = 0;
  std::string_view table;
  if (!reader.ReadU8(&op) || !reader.ReadLengthPrefixed(&table) || op > 1) {
    return Status::ParseError("corrupt update record payload");
  }
  UpdateRecord record;
  record.insert = op == 1;
  record.table.assign(table);
  record.row_csv.assign(payload.substr(reader.offset()));
  return record;
}

Status ApplyUpdateRecord(sql::Database* db, const UpdateRecord& record) {
  GALAXY_ASSIGN_OR_RETURN(std::shared_ptr<const Table> snapshot,
                          db->GetTable(record.table));
  const Table& table = *snapshot;
  GALAXY_ASSIGN_OR_RETURN(Row row,
                          ParseCsvRowForSchema(table.schema(), record.row_csv));
  // Copy-on-write, as on the serving path: an insert appends at the tip
  // of column buffers shared with the previous version, a remove copies
  // the typed columns minus one row. Nothing is boxed through rows.
  Result<Table> next = record.insert ? table.CopyWithAppended(row)
                                     : table.CopyWithRemoved(row);
  if (!next.ok()) {
    if (next.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("replayed remove matches no row in table " +
                              record.table);
    }
    return next.status();
  }
  db->Register(record.table, std::move(*next));
  return Status::OK();
}

DurabilityManager::DurabilityManager(Env* env, std::string dir,
                                     sql::Database* db,
                                     DurabilityOptions options,
                                     DurabilityMetricsHooks hooks)
    : env_(env),
      dir_(std::move(dir)),
      db_(db),
      options_(options),
      hooks_(std::move(hooks)) {}

DurabilityManager::~DurabilityManager() {
  if (wal_ != nullptr) (void)wal_->Close();
}

std::string DurabilityManager::SnapshotPath(uint64_t generation) const {
  return dir_ + "/" + std::string(kSnapshotPrefix) +
         std::to_string(generation) + std::string(kSnapshotSuffix);
}

std::string DurabilityManager::WalPath(uint64_t generation) const {
  return dir_ + "/" + std::string(kWalPrefix) + std::to_string(generation) +
         std::string(kWalSuffix);
}

WalMetricsHooks DurabilityManager::MakeWalHooks() const {
  WalMetricsHooks hooks;
  hooks.on_append = hooks_.on_wal_append;
  hooks.on_fsync = hooks_.on_wal_fsync;
  return hooks;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    Env* env, std::string dir, sql::Database* db, DurabilityOptions options,
    DurabilityMetricsHooks hooks) {
  if (db->num_tables() != 0) {
    return Status::InvalidArgument(
        "DurabilityManager::Open needs an empty database to recover into");
  }
  GALAXY_RETURN_IF_ERROR(env->CreateDirs(dir));
  std::unique_ptr<DurabilityManager> manager(
      new DurabilityManager(  // galaxy-lint: allow(naked-new) — private ctor, ownership moves straight into unique_ptr
          env, std::move(dir), db, options, std::move(hooks)));
  GALAXY_RETURN_IF_ERROR(manager->Recover());
  return manager;
}

Status DurabilityManager::Recover() {
  GALAXY_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));

  // Candidate generations, newest first. Generation 0 (no snapshot file)
  // is always a candidate: a fresh directory, or one that never rotated.
  std::vector<uint64_t> snapshot_gens;
  for (const std::string& name : names) {
    uint64_t generation = 0;
    if (ParseGeneration(name, kSnapshotPrefix, kSnapshotSuffix, &generation)) {
      snapshot_gens.push_back(generation);
    }
  }
  std::sort(snapshot_gens.rbegin(), snapshot_gens.rend());

  uint64_t chosen = 0;
  std::vector<SnapshotTable> tables;
  for (uint64_t generation : snapshot_gens) {
    Result<std::vector<SnapshotTable>> decoded =
        ReadSnapshotFile(env_, SnapshotPath(generation));
    if (decoded.ok()) {
      chosen = generation;
      tables = std::move(*decoded);
      break;
    }
    // A torn rotation can leave a bad newest snapshot only while the
    // previous generation (snapshot + WAL) still exists — fall back to it.
    recovery_.warnings.push_back("skipping unreadable " +
                                 SnapshotPath(generation) + ": " +
                                 decoded.status().ToString());
  }

  for (SnapshotTable& entry : tables) {
    db_->Register(entry.name, std::move(entry.table));
  }
  recovery_.generation = chosen;
  recovery_.tables_restored = tables.size();

  // Replay the WAL tail for the chosen generation. Missing file = empty
  // log (a crash between snapshot rename and WAL creation).
  const std::string wal_path = WalPath(chosen);
  std::string wal_data;
  Result<std::string> read = env_->ReadFileToString(wal_path);
  if (read.ok()) {
    wal_data = std::move(*read);
  } else if (read.status().code() != StatusCode::kNotFound) {
    return read.status();
  }
  WalDecodeResult decoded = DecodeWal(wal_data);
  for (const WalRecord& record : decoded.records) {
    if (record.type != WalRecordType::kUpdate) {
      return Status::ParseError("wal record of unknown type " +
                                std::to_string(static_cast<int>(record.type)));
    }
    GALAXY_ASSIGN_OR_RETURN(UpdateRecord update,
                            DecodeUpdateRecord(record.payload));
    GALAXY_RETURN_IF_ERROR(ApplyUpdateRecord(db_, update));
    ++recovery_.replayed_records;
  }
  if (decoded.truncated_tail) {
    // Drop the torn/corrupt tail before appending anything after it —
    // recovery stops replay at the first bad record, so bytes appended
    // beyond garbage would be unreachable.
    GALAXY_RETURN_IF_ERROR(env_->TruncateFile(wal_path, decoded.valid_bytes));
    recovery_.wal_tail_truncated = true;
    recovery_.warnings.push_back(
        "truncated torn wal tail at byte " +
        std::to_string(decoded.valid_bytes) + " of " + wal_path);
  }

  generation_ = chosen;
  GALAXY_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(env_, wal_path, options_.wal, MakeWalHooks()));
  SweepStaleFiles(chosen);
  return Status::OK();
}

void DurabilityManager::SweepStaleFiles(uint64_t keep) {
  Result<std::vector<std::string>> names = env_->ListDir(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    uint64_t generation = 0;
    bool stale = false;
    if (ParseGeneration(name, kSnapshotPrefix, kSnapshotSuffix, &generation) ||
        ParseGeneration(name, kWalPrefix, kWalSuffix, &generation)) {
      stale = generation != keep;
    } else if (name.size() > 4 &&
               name.substr(name.size() - 4) == ".tmp") {
      stale = true;  // torn snapshot write
    }
    if (!stale) continue;
    if (env_->RemoveFile(dir_ + "/" + name).ok()) {
      recovery_.warnings.push_back("swept stale file " + name);
    }
  }
}

Status DurabilityManager::Bootstrap() { return Snapshot(); }

Status DurabilityManager::LogUpdate(const UpdateRecord& record) {
  return wal_->Append(WalRecordType::kUpdate, EncodeUpdateRecord(record));
}

Status DurabilityManager::SyncWal() { return wal_->Sync(); }

Status DurabilityManager::Snapshot() {
  const auto begin = std::chrono::steady_clock::now();
  // Everything acked so far is in the catalog (the caller serializes
  // updates with snapshots), so the dump plus an empty WAL carries the
  // full state.
  std::vector<SnapshotTable> tables;
  for (auto& [name, table] : db_->SnapshotTables()) {
    tables.push_back(SnapshotTable{name, *table});
  }
  const uint64_t next = generation_ + 1;
  GALAXY_RETURN_IF_ERROR(
      WriteSnapshotFile(env_, dir_, std::string(kSnapshotPrefix) +
                                        std::to_string(next) +
                                        std::string(kSnapshotSuffix),
                        tables));
  // snapshot-(next) is durable: switch appends to its (empty) WAL. From
  // here on failures must not roll back — the new generation is already
  // the one recovery will choose.
  GALAXY_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> next_wal,
      WalWriter::Open(env_, WalPath(next), options_.wal, MakeWalHooks()));
  std::unique_ptr<WalWriter> old_wal = std::move(wal_);
  wal_ = std::move(next_wal);
  const uint64_t previous = generation_;
  generation_ = next;
  if (old_wal != nullptr) (void)old_wal->Close();
  // Best effort: a crash (or error) leaving generation `previous` behind
  // is swept at next recovery.
  (void)env_->RemoveFile(WalPath(previous));
  (void)env_->RemoveFile(SnapshotPath(previous));
  if (hooks_.on_snapshot) {
    hooks_.on_snapshot(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - begin)
                           .count());
  }
  return Status::OK();
}

}  // namespace galaxy::storage
