#ifndef MOST_STORAGE_WAL_H_
#define MOST_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"

namespace most {

/// A logged mutation. The WAL is an append-only file of records; a torn
/// final write (crash mid-append) is detected as an incomplete last record
/// and ignored on replay.
///
/// Three record framings coexist in a log (each record says which framing
/// it uses in its first byte, so v1 logs — and logs that gained v2 records
/// or motion frames after an upgrade — still replay):
///
///   v1:  <len>|<body>\n                     length framing only
///   v2:  #2|<crc32 hex8>|<len>|<body>\n     + per-record CRC32 over the body
///   motion frame: binary, see AppendWalMotionFrame
///
/// See docs/durability.md for the full format and recovery invariants.
struct WalRecord {
  enum class Kind : char {
    kCreateTable = 'T',
    kInsert = 'I',
    kUpdate = 'U',
    kDelete = 'D',
    kCreateIndex = 'X',
  };

  Kind kind = Kind::kInsert;
  std::string table;
  RowId rid = kInvalidRowId;
  Row row;             // kInsert / kUpdate.
  Schema schema;       // kCreateTable.
  std::string column;  // kCreateIndex.
};

/// Current (CRC-framed) record format version.
inline constexpr int kWalFormatVersion = 2;

/// Serializes a record as a single line (no trailing newline) in the given
/// format version (1 = legacy length-only framing, 2 = CRC32 framing).
std::string EncodeWalRecord(const WalRecord& record,
                            int format_version = kWalFormatVersion);
/// Parses one line of either version; Corruption on malformed input. A v2
/// line whose CRC does not match its body is Corruption (never mis-parses
/// as a different record).
Result<WalRecord> DecodeWalRecord(const std::string& line);

/// Tag of the motion row a motion frame decodes to (the first row field).
inline constexpr char kWalMotionTag[] = "M";

/// Appends the compact binary frame of one motion update to `out`
/// (docs/sharding.md). All integers and doubles are little-endian:
///
///   0xB5 | crc32 (4) | tick i64 | rid u64 | x, y, vx, vy f64 | len u8 | table
///
/// 54 bytes plus the table name; the CRC covers everything after itself.
/// Recovery decodes the frame into the kUpdate record whose row is
/// {kWalMotionTag, tick, x, y, vx, vy}, the same record the v2 text form
/// of that row decodes to. Returns false, appending nothing, when `table`
/// is longer than 255 bytes.
bool AppendWalMotionFrame(std::string* out, std::string_view table,
                          int64_t tick, uint64_t rid, double x, double y,
                          double vx, double vy);

/// Append-only writer with explicit flush-on-append ("the log is the
/// database"; everything else is a cache, per the usual WAL discipline).
/// Failpoint sites: wal/open, wal/append/write (write site — supports
/// torn writes), wal/append/flush, wal/sync.
class WalWriter {
 public:
  struct Options {
    int format_version = kWalFormatVersion;
  };

  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens for appending (creates the file if absent).
  Status Open(const std::string& path) { return Open(path, Options()); }
  Status Open(const std::string& path, Options options);
  bool is_open() const { return file_ != nullptr; }

  Status Append(const WalRecord& record);
  /// Appends `size` bytes holding `records` already-encoded records (text
  /// lines with their newlines, motion frames) with one write and one
  /// flush. All or nothing, as Append is for one record: on failure none
  /// of the batch stays in the log once the writer appends again.
  Status AppendEncoded(const char* bytes, size_t size, size_t records);
  Status Flush();
  /// Forces appended records to stable storage (fdatasync via fileno).
  /// Flush() survives a process crash; Sync() also survives an OS crash.
  Status Sync();
  void Close();

 private:
  // Uninstrumented bodies; the public wrappers time them into the metrics
  // registry (most_wal_append_latency_seconds / most_wal_sync_latency_...).
  Status AppendImpl(const char* bytes, size_t size);
  Status SyncImpl();

  /// Cuts the file back to `size_` after a failed append, whose bytes may
  /// sit in the file (a torn write) or in the stdio buffer (a failed
  /// flush): the caller was told the record failed, and a later record
  /// must not be glued onto the fragment, where recovery would drop both.
  Status CutFailedAppend();

  std::FILE* file_ = nullptr;
  Options options_;
  uint64_t size_ = 0;  ///< Bytes of complete records in the file.
  bool failed_append_ = false;
};

/// Reads every complete record of a log file. A trailing partial record
/// (torn write) is tolerated and reported via `tail_truncated`; corruption
/// in the middle of the file is an error. (Strict mode — see RecoverWal
/// for the salvaging variant.)
Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       bool* tail_truncated = nullptr);

/// What salvage recovery did to a log. `applied` counts records that
/// replayed; `dropped` counts corrupt/torn/unappliable records skipped;
/// `salvaged` counts applied records that came after the first drop (they
/// would have been lost under strict replay).
struct RecoveryReport {
  size_t applied = 0;
  size_t salvaged = 0;
  size_t dropped = 0;
  bool tail_truncated = false;
  std::string first_error;  ///< First corruption message, for logging.
};

/// Salvaging reader: decodes every record it can, skipping corrupt records
/// (middle or tail) instead of aborting the replay. After a record that
/// does not decode it resumes at the next position where one does, so a
/// damaged record never takes its neighbours with it and never decodes as
/// a different record. Only I/O-level failures (unreadable file) are
/// errors; a missing file is an empty log.
Result<std::vector<WalRecord>> RecoverWal(const std::string& path,
                                          RecoveryReport* report);

}  // namespace most

#endif  // MOST_STORAGE_WAL_H_
