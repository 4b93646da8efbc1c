#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/env.h"

namespace galaxy::storage {

/// The write-ahead log: CRC32C-checksummed, length-prefixed records with
/// group-commit batching and a configurable fsync policy. One record on
/// disk is
///
///   [u32 masked crc32c][u32 payload length][u8 type][payload]
///
/// (all integers little-endian; the CRC covers length + type + payload and
/// is stored masked, common/crc32c.h). Decoding tolerates a torn or
/// corrupt tail: it stops at the first record whose length runs past EOF
/// or whose checksum fails, and reports the valid prefix length so
/// recovery can truncate the garbage and keep appending.

enum class WalRecordType : uint8_t {
  kUpdate = 1,  ///< one table mutation (storage/durability.h encoding)
};

struct WalRecord {
  WalRecordType type;
  std::string payload;
};

/// Serializes one record (header + payload) onto `out`. Shared by the
/// writer and the WAL fuzz target so both sides agree on the format.
void EncodeWalRecord(WalRecordType type, std::string_view payload,
                     std::string* out);

struct WalDecodeResult {
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix (ends just after the last good
  /// record). Recovery truncates the file here before reopening it.
  uint64_t valid_bytes = 0;
  /// True when bytes beyond valid_bytes existed — a torn trailing record
  /// or corruption.
  bool truncated_tail = false;
};

/// Decodes every valid record from the head of `data`. Total: never fails,
/// never returns a record whose checksum did not verify.
WalDecodeResult DecodeWal(std::string_view data);

/// When appends are forced to stable media:
///   kAlways    fdatasync before every ack — acked updates survive OS/power
///              failure;
///   kInterval  fdatasync at most once per interval (next append past the
///              deadline pays it) — bounded-loss under OS failure;
///   kNever     no fdatasync — the OS flushes when it likes.
/// Under every policy an ack means the bytes reached the kernel, so a
/// process crash (kill -9) loses nothing acked; the policy only governs
/// machine-level crashes.
enum class FsyncPolicy { kAlways, kInterval, kNever };

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name);
const char* FsyncPolicyName(FsyncPolicy policy);

struct WalWriterOptions {
  FsyncPolicy policy = FsyncPolicy::kAlways;
  std::chrono::milliseconds fsync_interval{100};
};

/// Observability hooks, called on the append path; must be cheap and must
/// not call back into the writer. (The serving layer points these at its
/// MetricsRegistry — src/storage cannot depend on src/server.)
struct WalMetricsHooks {
  std::function<void(uint64_t bytes)> on_append;  ///< per durable record
  std::function<void(double seconds)> on_fsync;   ///< per fdatasync, timed
};

/// Appends records with group commit: concurrent Append calls coalesce
/// into one write (and at most one fdatasync) performed by a leader while
/// followers wait; everyone returns once their record is durable per the
/// policy.
///
/// Sticky failure: after any write/sync error the log is poisoned and all
/// later Appends fail with the original error. A half-written record must
/// never get a successor — recovery truncates at the first bad record, so
/// appending past garbage would silently drop acked records behind it.
class WalWriter {
 public:
  /// Opens `path` for appending (created if missing).
  static Result<std::unique_ptr<WalWriter>> Open(Env* env, std::string path,
                                                 WalWriterOptions options,
                                                 WalMetricsHooks hooks = {});

  /// Appends one record; blocks until it is durable per the policy.
  Status Append(WalRecordType type, std::string_view payload)
      EXCLUDES(mutex_);

  /// Forces an fdatasync regardless of policy (snapshot barrier).
  Status Sync() EXCLUDES(mutex_);

  Status Close() EXCLUDES(mutex_);

  /// The sticky failure state: OK, or the first append/sync error.
  Status status() const EXCLUDES(mutex_);

 private:
  WalWriter(Env* env, std::string path, WalWriterOptions options,
            WalMetricsHooks hooks, std::unique_ptr<WritableFile> file);

  /// Leader's decision: sync now under the current policy?
  bool ShouldSync(std::chrono::steady_clock::time_point now) const
      REQUIRES(mutex_);

  /// Takes the pending batch and commits it (write + sync per policy),
  /// releasing the mutex around the file I/O. On failure poisons the log.
  /// Callers must have checked `!writing_`.
  Status CommitPending(bool force_sync) REQUIRES(mutex_);

  Env* const env_;
  const std::string path_;
  const WalWriterOptions options_;
  const WalMetricsHooks hooks_;

  mutable common::Mutex mutex_;
  common::CondVar cv_;
  std::unique_ptr<WritableFile> file_ GUARDED_BY(mutex_);
  std::string pending_ GUARDED_BY(mutex_);
  uint64_t next_seq_ GUARDED_BY(mutex_) = 0;
  uint64_t pending_max_seq_ GUARDED_BY(mutex_) = 0;
  uint64_t durable_seq_ GUARDED_BY(mutex_) = 0;
  bool writing_ GUARDED_BY(mutex_) = false;
  Status poison_ GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point last_sync_ GUARDED_BY(mutex_);
};

}  // namespace galaxy::storage
