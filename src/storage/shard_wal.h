#ifndef MOST_STORAGE_SHARD_WAL_H_
#define MOST_STORAGE_SHARD_WAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/wal.h"

namespace most {

/// Per-shard write-ahead log (docs/sharding.md): shard k of a sharded
/// engine appends to `<dir>/shard-<k>.wal`, so N drain threads log
/// concurrently without sharing a file or a lock, while reusing the
/// CRC-framed WalRecord formats (v2 text lines and motion frames),
/// torn-tail tolerance, salvage recovery and the wal/* failpoint sites of
/// the storage WAL wholesale.
///
/// The record *payload* convention is the caller's (the sharded engine
/// encodes object updates as Kind::kUpdate records whose row carries the
/// update tick, attribute and encoded time function); this class only
/// owns path layout and writer lifecycle.
class ShardWal {
 public:
  ShardWal() = default;

  ShardWal(const ShardWal&) = delete;
  ShardWal& operator=(const ShardWal&) = delete;

  /// `<dir>/shard-<shard>.wal` (no directory creation; `dir` must exist).
  static std::string PathFor(const std::string& dir, size_t shard);

  Status Open(const std::string& dir, size_t shard);
  bool is_open() const { return writer_.is_open(); }
  const std::string& path() const { return path_; }

  Status Append(const WalRecord& record) { return writer_.Append(record); }
  /// One drain's records, already encoded (WalWriter::AppendEncoded).
  Status AppendEncoded(const char* bytes, size_t size, size_t records) {
    return writer_.AppendEncoded(bytes, size, records);
  }
  /// fdatasync, for callers that need OS-crash durability per batch.
  Status Sync() { return writer_.Sync(); }
  void Close() { writer_.Close(); }

 private:
  WalWriter writer_;
  std::string path_;
};

/// Salvage-reads every shard log under `dir` for shard indices
/// [0, shard_count) and concatenates the records shard by shard. A
/// missing shard file is an empty log (a shard that never saw an update
/// writes nothing). Cross-shard record order is by shard index — safe for
/// replay because shards own disjoint objects, so no two shards' records
/// ever touch the same object. `report` (optional) accumulates the
/// salvage counters across all shard files.
Result<std::vector<WalRecord>> ReadShardWals(const std::string& dir,
                                             size_t shard_count,
                                             RecoveryReport* report);

}  // namespace most

#endif  // MOST_STORAGE_SHARD_WAL_H_
