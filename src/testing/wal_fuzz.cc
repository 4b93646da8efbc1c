#include "testing/wal_fuzz.h"

#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "relation/table.h"
#include "sql/catalog.h"
#include "storage/durability.h"
#include "storage/env.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace galaxy::storage {
namespace {

// Deterministic splitmix64 stream — the same generator the other fuzz
// modules use, so campaigns reproduce exactly from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

std::string RandomPayload(Rng& rng) {
  std::string out;
  const size_t len = rng.Below(120);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.Below(256)));
  }
  return out;
}

/// Applies one of several corruption styles; returns a description.
const char* Corrupt(Rng& rng, std::string* image) {
  switch (rng.Below(5)) {
    case 0:
      return "clean";
    case 1: {
      if (!image->empty()) image->resize(rng.Below(image->size()));
      return "truncated";
    }
    case 2: {
      const size_t flips = 1 + rng.Below(4);
      for (size_t i = 0; i < flips && !image->empty(); ++i) {
        (*image)[rng.Below(image->size())] ^=
            static_cast<char>(1u << rng.Below(8));
      }
      return "bit-flipped";
    }
    case 3: {
      const size_t junk = 1 + rng.Below(40);
      for (size_t i = 0; i < junk; ++i) {
        image->push_back(static_cast<char>(rng.Below(256)));
      }
      return "garbage-appended";
    }
    default: {
      image->clear();
      const size_t junk = rng.Below(200);
      for (size_t i = 0; i < junk; ++i) {
        image->push_back(static_cast<char>(rng.Below(256)));
      }
      return "pure-garbage";
    }
  }
}

std::string CheckDecode(const std::string& image, const char* style,
                        uint64_t round, WalFuzzStats* stats) {
  const WalDecodeResult decoded = DecodeWal(image);
  stats->records_decoded += decoded.records.size();
  if (decoded.truncated_tail) ++stats->torn_tails;

  auto fail = [&](const std::string& what) {
    return "round " + std::to_string(round) + " (" + style + "): " + what +
           " (image " + std::to_string(image.size()) + " bytes, " +
           std::to_string(decoded.records.size()) + " records, valid_bytes " +
           std::to_string(decoded.valid_bytes) + ")";
  };

  if (decoded.valid_bytes > image.size()) {
    return fail("valid_bytes ran past the input");
  }
  if (decoded.truncated_tail != (decoded.valid_bytes < image.size())) {
    return fail("truncated_tail disagrees with valid_bytes");
  }
  // The load-bearing property: re-encoding what the decoder accepted
  // reproduces the valid prefix byte for byte. A record that did not
  // checksum can therefore never be among the accepted ones.
  std::string reencoded;
  for (const WalRecord& record : decoded.records) {
    EncodeWalRecord(record.type, record.payload, &reencoded);
  }
  if (reencoded != std::string_view(image).substr(0, decoded.valid_bytes)) {
    return fail("accepted records do not re-encode to the valid prefix");
  }
  return "";
}

/// Plants `wal_image` as the WAL of a live generation-1 data directory
/// (snapshot = the empty seed table the updates refer to) and requires
/// recovery to start — never to refuse — replaying at most the records
/// that were acked into the image.
std::string CheckRecovery(const Schema& schema, const std::string& wal_image,
                          uint64_t acked, uint64_t round) {
  std::unique_ptr<Env> env = NewMemEnv();
  const std::string dir = "fuzz-data";
  if (!env->CreateDirs(dir).ok()) return "mem env CreateDirs failed";
  if (!WriteSnapshotFile(env.get(), dir, "snapshot-1.gal",
                         {SnapshotTable{"t", Table(schema, std::vector<Row>{})}})
           .ok()) {
    return "planting the seed snapshot failed";
  }
  {
    Result<std::unique_ptr<WritableFile>> file =
        env->NewWritableFile(dir + "/wal-1.log", Env::WriteMode::kTruncate);
    if (!file.ok() || !(*file)->Append(wal_image).ok()) {
      return "planting the wal image failed";
    }
  }
  sql::Database db;
  Result<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(env.get(), dir, &db, DurabilityOptions{});
  auto fail = [&](const std::string& what) {
    return "round " + std::to_string(round) + " (recovery): " + what;
  };
  if (!manager.ok()) {
    return fail("refused to start on a corrupt wal: " +
                manager.status().ToString());
  }
  const RecoveryInfo& info = (*manager)->recovery_info();
  if (info.replayed_records > acked) {
    return fail("replayed " + std::to_string(info.replayed_records) +
                " records but only " + std::to_string(acked) +
                " were appended — a bad-checksum record was replayed");
  }
  return "";
}

}  // namespace

std::string FuzzWal(uint64_t seed, int iterations, WalFuzzStats* stats) {
  WalFuzzStats local;
  if (stats == nullptr) stats = &local;

  // Schema of the table the recovery rounds replay into.
  const Schema schema({ColumnDef{"g", ValueType::kString},
                       ColumnDef{"x", ValueType::kInt64},
                       ColumnDef{"y", ValueType::kDouble}});

  for (int round = 0; round < iterations; ++round) {
    Rng rng(seed + static_cast<uint64_t>(round) * 0x9e3779b97f4a7c15ULL);

    const bool recovery_round = round % 4 == 3;
    std::string image;
    uint64_t encoded = 0;
    if (recovery_round) {
      // Real update records against a real (empty) table, so replay
      // exercises the full decode -> parse -> apply path. Only ackable
      // updates are logged (a remove must match a live row), mirroring
      // the server: any prefix of the log is then consistently
      // replayable.
      std::vector<std::string> live_rows;
      const uint64_t n = rng.Below(12);
      for (uint64_t i = 0; i < n; ++i) {
        UpdateRecord update;
        update.table = "t";
        if (!live_rows.empty() && rng.Below(3) == 0) {
          const size_t victim = rng.Below(live_rows.size());
          update.insert = false;
          update.row_csv = live_rows[victim];
          live_rows.erase(live_rows.begin() +
                          static_cast<ptrdiff_t>(victim));
        } else {
          update.insert = true;
          update.row_csv = "g" + std::to_string(rng.Below(4)) + "," +
                           std::to_string(rng.Below(100)) + "," +
                           std::to_string(rng.Below(100)) + ".5";
          live_rows.push_back(update.row_csv);
        }
        EncodeWalRecord(WalRecordType::kUpdate, EncodeUpdateRecord(update),
                        &image);
        ++encoded;
      }
    } else {
      const uint64_t n = rng.Below(10);
      for (uint64_t i = 0; i < n; ++i) {
        EncodeWalRecord(WalRecordType::kUpdate, RandomPayload(rng), &image);
        ++encoded;
      }
    }
    const size_t clean_size = image.size();
    const char* style = Corrupt(rng, &image);
    ++stats->inputs;

    std::string detail = CheckDecode(image, style, round, stats);
    if (!detail.empty()) return detail;

    if (std::string_view(style) == std::string_view("clean")) {
      const WalDecodeResult decoded = DecodeWal(image);
      if (decoded.records.size() != encoded ||
          decoded.valid_bytes != clean_size) {
        return "round " + std::to_string(round) +
               ": clean image did not round-trip (" +
               std::to_string(decoded.records.size()) + " of " +
               std::to_string(encoded) + " records)";
      }
    }

    if (recovery_round) {
      ++stats->recoveries;
      detail = CheckRecovery(schema, image, encoded, round);
      if (!detail.empty()) return detail;
    }
  }
  return "";
}

}  // namespace galaxy::storage
