#include "storage/wal.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstring>
#include <sstream>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace most {

namespace {

/// Registry-owned series for the durability path. Append/Sync each pay two
/// steady-clock reads when metrics are enabled, nothing when disabled.
struct WalRegistrySeries {
  obs::Counter* appends;
  obs::Counter* syncs;
  obs::Histogram* append_latency;
  obs::Histogram* sync_latency;

  static const WalRegistrySeries& Get() {
    static const WalRegistrySeries s = [] {
      auto& r = obs::MetricsRegistry::Global();
      WalRegistrySeries s;
      s.appends = r.GetCounter("most_wal_appends_total",
                               "WAL records appended (including failed)");
      s.syncs = r.GetCounter("most_wal_syncs_total",
                             "WAL fsync/fdatasync calls");
      s.append_latency = r.GetHistogram(
          "most_wal_append_latency_seconds", "WAL Append wall time",
          obs::ExponentialBuckets(1e-6, 4.0, 10));
      s.sync_latency = r.GetHistogram(
          "most_wal_sync_latency_seconds", "WAL Sync wall time",
          obs::ExponentialBuckets(1e-6, 4.0, 10));
      return s;
    }();
    return s;
  }
};

// Field escaping: '%', '|', ',', ':', newline, CR.
std::string Escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case '|':
        out += "%7C";
        break;
      case ',':
        out += "%2C";
        break;
      case ':':
        out += "%3A";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> Unescape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out += in[i];
      continue;
    }
    if (i + 2 >= in.size()) {
      return Status::Corruption("truncated escape sequence");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    int hi = hex(in[i + 1]);
    int lo = hex(in[i + 2]);
    if (hi < 0 || lo < 0) return Status::Corruption("bad escape sequence");
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "N";
    case ValueType::kBool:
      return v.bool_value() ? "B1" : "B0";
    case ValueType::kInt:
      return "I" + std::to_string(v.int_value());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "D%.17g", v.double_value());
      return buf;
    }
    case ValueType::kString:
      return "S" + Escape(v.string_value());
  }
  return "N";
}

Result<Value> DecodeValue(const std::string& in) {
  if (in.empty()) return Status::Corruption("empty value encoding");
  const std::string payload = in.substr(1);
  switch (in[0]) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value(payload == "1");
    case 'I': {
      char* end = nullptr;
      int64_t v = std::strtoll(payload.c_str(), &end, 10);
      if (end == payload.c_str() || *end != '\0') {
        return Status::Corruption("bad int encoding: " + in);
      }
      return Value(v);
    }
    case 'D': {
      char* end = nullptr;
      double v = std::strtod(payload.c_str(), &end);
      if (end == payload.c_str() || *end != '\0') {
        return Status::Corruption("bad double encoding: " + in);
      }
      return Value(v);
    }
    case 'S': {
      MOST_ASSIGN_OR_RETURN(std::string s, Unescape(payload));
      return Value(std::move(s));
    }
    default:
      return Status::Corruption("unknown value tag in: " + in);
  }
}

std::string EncodeRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += ',';
    out += EncodeValue(row[i]);
  }
  return out;
}

Result<Row> DecodeRow(const std::string& in) {
  Row row;
  if (in.empty()) return row;
  std::istringstream is(in);
  std::string field;
  while (std::getline(is, field, ',')) {
    MOST_ASSIGN_OR_RETURN(Value v, DecodeValue(field));
    row.push_back(std::move(v));
  }
  return row;
}

std::string EncodeSchema(const Schema& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i) out += ',';
    out += Escape(schema.column(i).name);
    out += ':';
    out += std::to_string(static_cast<int>(schema.column(i).type));
  }
  return out;
}

Result<Schema> DecodeSchema(const std::string& in) {
  std::vector<Column> columns;
  if (in.empty()) return Schema(std::move(columns));
  std::istringstream is(in);
  std::string field;
  while (std::getline(is, field, ',')) {
    size_t colon = field.rfind(':');
    if (colon == std::string::npos) {
      return Status::Corruption("bad schema column: " + field);
    }
    MOST_ASSIGN_OR_RETURN(std::string name, Unescape(field.substr(0, colon)));
    int type = std::atoi(field.c_str() + colon + 1);
    if (type < 0 || type > static_cast<int>(ValueType::kString)) {
      return Status::Corruption("bad column type: " + field);
    }
    columns.push_back({std::move(name), static_cast<ValueType>(type)});
  }
  return Schema(std::move(columns));
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == '|') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

// Serializes the version-independent record body: <kind>|<table>[|...].
std::string EncodeWalBody(const WalRecord& record) {
  std::string body;
  body += static_cast<char>(record.kind);
  body += '|';
  body += Escape(record.table);
  switch (record.kind) {
    case WalRecord::Kind::kCreateTable:
      body += '|';
      body += EncodeSchema(record.schema);
      break;
    case WalRecord::Kind::kInsert:
    case WalRecord::Kind::kUpdate:
      body += '|';
      body += std::to_string(record.rid);
      body += '|';
      body += EncodeRow(record.row);
      break;
    case WalRecord::Kind::kDelete:
      body += '|';
      body += std::to_string(record.rid);
      break;
    case WalRecord::Kind::kCreateIndex:
      body += '|';
      body += Escape(record.column);
      break;
  }
  return body;
}

Result<WalRecord> DecodeWalBody(const std::string& body) {
  std::vector<std::string> fields = SplitFields(body);
  if (fields.size() < 2 || fields[0].size() != 1) {
    return Status::Corruption("malformed record: " + body);
  }
  WalRecord record;
  record.kind = static_cast<WalRecord::Kind>(fields[0][0]);
  MOST_ASSIGN_OR_RETURN(record.table, Unescape(fields[1]));
  auto need = [&](size_t n) -> Status {
    if (fields.size() != n) {
      return Status::Corruption("wrong field count in: " + body);
    }
    return Status::OK();
  };
  switch (record.kind) {
    case WalRecord::Kind::kCreateTable: {
      MOST_RETURN_IF_ERROR(need(3));
      MOST_ASSIGN_OR_RETURN(record.schema, DecodeSchema(fields[2]));
      return record;
    }
    case WalRecord::Kind::kInsert:
    case WalRecord::Kind::kUpdate: {
      MOST_RETURN_IF_ERROR(need(4));
      record.rid = std::strtoull(fields[2].c_str(), nullptr, 10);
      MOST_ASSIGN_OR_RETURN(record.row, DecodeRow(fields[3]));
      return record;
    }
    case WalRecord::Kind::kDelete: {
      MOST_RETURN_IF_ERROR(need(3));
      record.rid = std::strtoull(fields[2].c_str(), nullptr, 10);
      return record;
    }
    case WalRecord::Kind::kCreateIndex: {
      MOST_RETURN_IF_ERROR(need(3));
      MOST_ASSIGN_OR_RETURN(record.column, Unescape(fields[2]));
      return record;
    }
  }
  return Status::Corruption("unknown record kind in: " + body);
}

// v2 line: #<version>|<crc32 hex8>|<len>|<body>.
Result<WalRecord> DecodeWalRecordV2(const std::string& line) {
  std::vector<std::string> head = SplitFields(line);
  if (head.size() < 4) {
    return Status::Corruption("short v2 record header");
  }
  if (head[0] != "#2") {
    return Status::Corruption("unsupported WAL record version: " + head[0]);
  }
  if (head[1].size() != 8) {
    return Status::Corruption("bad v2 CRC field");
  }
  char* end = nullptr;
  uint64_t declared_crc = std::strtoull(head[1].c_str(), &end, 16);
  if (end != head[1].c_str() + 8) {
    return Status::Corruption("bad v2 CRC field");
  }
  uint64_t declared_len = std::strtoull(head[2].c_str(), &end, 10);
  if (head[2].empty() || end != head[2].c_str() + head[2].size()) {
    return Status::Corruption("bad v2 length field");
  }
  // The body is everything after the third '|'.
  size_t body_at = head[0].size() + head[1].size() + head[2].size() + 3;
  std::string body = line.substr(body_at);
  if (body.size() != declared_len) {
    return Status::Corruption("v2 length mismatch (torn record?)");
  }
  if (Crc32(body.data(), body.size()) != static_cast<uint32_t>(declared_crc)) {
    return Status::Corruption("v2 CRC mismatch");
  }
  return DecodeWalBody(body);
}

// Motion frame layout (AppendWalMotionFrame): tag, CRC, then the body the
// CRC covers — tick, rid, x, y, vx, vy, table length, table.
constexpr unsigned char kMotionFrameTag = 0xB5;
constexpr size_t kMotionFrameBodyAt = 5;
constexpr size_t kMotionFrameFields = 6;  // 8 bytes each.
constexpr size_t kMotionFrameLengthAt =
    kMotionFrameBodyAt + 8 * kMotionFrameFields;
constexpr size_t kMotionFrameHeader = kMotionFrameLengthAt + 1;

void PutLe(char* p, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

uint64_t GetLe(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

bool IsFrameTag(char c) {
  return static_cast<unsigned char>(c) == kMotionFrameTag;
}

/// What decoding the record at one log position found.
enum class Scan {
  kRecord,      ///< A record; `end` is one past it.
  kCorrupt,     ///< Damaged; `end` is where its own framing says it ends.
  kIncomplete,  ///< Runs past the end of the log (a torn tail, if last).
};

Scan DecodeMotionFrame(const std::string& log, size_t pos, WalRecord* out,
                       size_t* end, Status* error) {
  const char* p = log.data() + pos;
  const size_t avail = log.size() - pos;
  const size_t len =
      avail < kMotionFrameHeader
          ? kMotionFrameHeader
          : kMotionFrameHeader +
                static_cast<unsigned char>(p[kMotionFrameLengthAt]);
  if (avail < len) {
    *end = log.size();
    *error = Status::Corruption("motion frame runs past the end of the log");
    return Scan::kIncomplete;
  }
  *end = pos + len;
  if (Crc32(p + kMotionFrameBodyAt, len - kMotionFrameBodyAt) !=
      static_cast<uint32_t>(GetLe(p + 1, 4))) {
    *error = Status::Corruption("motion frame CRC mismatch");
    return Scan::kCorrupt;
  }
  uint64_t f[kMotionFrameFields];  // tick, rid, x, y, vx, vy.
  for (size_t i = 0; i < kMotionFrameFields; ++i) {
    f[i] = GetLe(p + kMotionFrameBodyAt + 8 * i, 8);
  }
  out->kind = WalRecord::Kind::kUpdate;
  out->table.assign(p + kMotionFrameHeader, len - kMotionFrameHeader);
  out->rid = f[1];
  out->row = {Value(kWalMotionTag),
              Value(static_cast<int64_t>(f[0])),
              Value(std::bit_cast<double>(f[2])),
              Value(std::bit_cast<double>(f[3])),
              Value(std::bit_cast<double>(f[4])),
              Value(std::bit_cast<double>(f[5]))};
  return Scan::kRecord;
}

/// Decodes the record starting at log[pos]: a motion frame if it starts
/// with the frame tag, otherwise a text line.
Scan DecodeAt(const std::string& log, size_t pos, WalRecord* out, size_t* end,
              Status* error) {
  if (IsFrameTag(log[pos])) return DecodeMotionFrame(log, pos, out, end, error);
  const size_t nl = log.find('\n', pos);
  if (nl == std::string::npos) {
    *end = log.size();
    *error = Status::Corruption("record runs past the end of the log");
    return Scan::kIncomplete;
  }
  *end = nl + 1;
  Result<WalRecord> record = DecodeWalRecord(log.substr(pos, nl - pos));
  if (!record.ok()) {
    *error = record.status();
    return Scan::kCorrupt;
  }
  *out = std::move(record).value();
  return Scan::kRecord;
}

/// The first position at or after `from` where a record decodes, or npos.
/// Only a record start can begin one: a frame tag, a v2 '#', or the byte
/// after a newline.
size_t NextRecordStart(const std::string& log, size_t from) {
  WalRecord scratch;
  size_t end = 0;
  Status error;
  for (size_t q = from; q < log.size(); ++q) {
    const bool start = IsFrameTag(log[q]) || log[q] == '#' ||
                       (q > 0 && log[q - 1] == '\n' && log[q] != '\n');
    if (start && DecodeAt(log, q, &scratch, &end, &error) == Scan::kRecord) {
      return q;
    }
  }
  return std::string::npos;
}

}  // namespace

bool AppendWalMotionFrame(std::string* out, std::string_view table,
                          int64_t tick, uint64_t rid, double x, double y,
                          double vx, double vy) {
  if (table.size() > 255) return false;  // The length is one byte.
  const size_t at = out->size();
  const size_t len = kMotionFrameHeader + table.size();
  out->resize(at + len);
  char* p = out->data() + at;
  p[0] = static_cast<char>(kMotionFrameTag);
  const uint64_t f[kMotionFrameFields] = {
      static_cast<uint64_t>(tick), rid,
      std::bit_cast<uint64_t>(x),  std::bit_cast<uint64_t>(y),
      std::bit_cast<uint64_t>(vx), std::bit_cast<uint64_t>(vy)};
  for (size_t i = 0; i < kMotionFrameFields; ++i) {
    PutLe(p + kMotionFrameBodyAt + 8 * i, f[i], 8);
  }
  p[kMotionFrameLengthAt] = static_cast<char>(table.size());
  std::memcpy(p + kMotionFrameHeader, table.data(), table.size());
  PutLe(p + 1, Crc32(p + kMotionFrameBodyAt, len - kMotionFrameBodyAt), 4);
  return true;
}

std::string EncodeWalRecord(const WalRecord& record, int format_version) {
  std::string body = EncodeWalBody(record);
  if (format_version <= 1) {
    // Length prefix guards against torn tail writes that happen to end in
    // a newline.
    return std::to_string(body.size()) + "|" + body;
  }
  char header[32];
  std::snprintf(header, sizeof(header), "#2|%08x|%zu|",
                Crc32(body.data(), body.size()), body.size());
  return header + body;
}

Result<WalRecord> DecodeWalRecord(const std::string& line) {
  if (!line.empty() && line[0] == '#') return DecodeWalRecordV2(line);
  size_t bar = line.find('|');
  if (bar == std::string::npos) {
    return Status::Corruption("missing length prefix");
  }
  char* end = nullptr;
  uint64_t declared = std::strtoull(line.c_str(), &end, 10);
  if (end != line.c_str() + bar) {
    return Status::Corruption("bad length prefix");
  }
  std::string body = line.substr(bar + 1);
  if (body.size() != declared) {
    return Status::Corruption("length mismatch (torn record?)");
  }
  return DecodeWalBody(body);
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path, Options options) {
  Close();
  options_ = options;
  MOST_FAILPOINT("wal/open");
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open WAL file: " + path);
  }
  std::fseek(file_, 0, SEEK_END);
  size_ = static_cast<uint64_t>(std::ftell(file_));
  failed_append_ = false;
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  std::string line = EncodeWalRecord(record, options_.format_version);
  line += '\n';
  return AppendEncoded(line.data(), line.size(), 1);
}

Status WalWriter::AppendEncoded(const char* bytes, size_t size,
                                size_t records) {
  if (file_ == nullptr) return Status::Internal("WAL is not open");
  obs::TraceSpan span("wal/append", "storage");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t t0 = registry.enabled() ? obs::MonotonicNowNs() : 0;
  Status status = AppendImpl(bytes, size);
  if (registry.enabled()) {
    const WalRegistrySeries& series = WalRegistrySeries::Get();
    series.appends->Inc(records);
    series.append_latency->Observe(
        static_cast<double>(obs::MonotonicNowNs() - t0) * 1e-9);
  }
  return status;
}

Status WalWriter::AppendImpl(const char* bytes, size_t size) {
  // Device-full / I/O-error injection (distinct from wal/append/write torn
  // writes: nothing reaches the file, as ENOSPC on the first byte would).
  MOST_FAILPOINT("wal/append/enospc");
  if (failed_append_) MOST_RETURN_IF_ERROR(CutFailedAppend());
  FailpointRegistry::WriteFault fault =
      FailpointRegistry::Instance().CheckWrite("wal/append/write", size);
  failed_append_ = true;  // Until the bytes are complete and flushed.
  if (fault.write_bytes > 0 &&
      std::fwrite(bytes, 1, fault.write_bytes, file_) != fault.write_bytes) {
    return Status::Internal("short WAL write");
  }
  if (!fault.status.ok()) {
    // Make the torn prefix actually reach the file, as a crash mid-append
    // would have: recovery must cope with it on the next Open (a writer
    // that lives on cuts it first).
    std::fflush(file_);
    return fault.status;
  }
  MOST_RETURN_IF_ERROR(Flush());
  failed_append_ = false;
  size_ += size;
  return Status::OK();
}

Status WalWriter::CutFailedAppend() {
  if (std::fflush(file_) != 0) return Status::Internal("WAL flush failed");
#if defined(__unix__) || defined(__APPLE__)
  if (::ftruncate(fileno(file_), static_cast<off_t>(size_)) != 0) {
    return Status::Internal("cannot cut a failed WAL append");
  }
#endif
  failed_append_ = false;
  return Status::OK();
}

Status WalWriter::Flush() {
  if (file_ == nullptr) return Status::Internal("WAL is not open");
  MOST_FAILPOINT("wal/append/flush");
  if (std::fflush(file_) != 0) return Status::Internal("WAL flush failed");
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::Internal("WAL is not open");
  obs::TraceSpan span("wal/sync", "storage");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t t0 = registry.enabled() ? obs::MonotonicNowNs() : 0;
  Status status = SyncImpl();
  if (registry.enabled()) {
    const WalRegistrySeries& series = WalRegistrySeries::Get();
    series.syncs->Inc();
    series.sync_latency->Observe(
        static_cast<double>(obs::MonotonicNowNs() - t0) * 1e-9);
  }
  return status;
}

Status WalWriter::SyncImpl() {
  MOST_RETURN_IF_ERROR(Flush());
  MOST_FAILPOINT("wal/sync");
#if defined(__APPLE__)
  if (::fsync(fileno(file_)) != 0) {
    return Status::Internal("WAL fsync failed");
  }
#elif defined(__unix__)
  if (::fdatasync(fileno(file_)) != 0) {
    return Status::Internal("WAL fdatasync failed");
  }
#endif
  return Status::OK();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

namespace {

Result<std::string> ReadFileContents(const std::string& path, bool* missing) {
  *missing = false;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *missing = true;
    return std::string();
  }
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::Internal("cannot read WAL file: " + path);
  }
  return contents;
}

}  // namespace

namespace {

/// Decodes a whole log. Strict: a damaged record is an error unless it is
/// the last one (a torn tail). Salvage: damaged records are skipped and
/// counted in `rep`.
Result<std::vector<WalRecord>> DecodeLog(const std::string& contents,
                                         bool strict, RecoveryReport* rep) {
  std::vector<WalRecord> records;
  size_t pos = 0;
  // NextRecordStart(contents, p + 1) for the last damaged position p; it
  // stays the answer for every later damaged position before it.
  size_t resync = 0;
  bool have_resync = false;
  while (pos < contents.size()) {
    if (contents[pos] == '\n') {
      ++pos;
      continue;
    }
    WalRecord record;
    size_t end = 0;
    Status error;
    const Scan scan = DecodeAt(contents, pos, &record, &end, &error);
    if (scan == Scan::kRecord) {
      ++rep->applied;
      if (rep->dropped > 0) ++rep->salvaged;
      records.push_back(std::move(record));
      pos = end;
      continue;
    }
    if (strict) {
      if (scan == Scan::kIncomplete || end >= contents.size()) {
        // Torn tail write (or a corrupt final record): the last record
        // never completed.
        rep->tail_truncated = true;
        break;
      }
      return error;  // Mid-file corruption is fatal.
    }
    ++rep->dropped;
    if (!have_resync || pos >= resync) {
      resync = NextRecordStart(contents, pos + 1);
      have_resync = true;
    }
    if (scan == Scan::kIncomplete && resync == std::string::npos) {
      rep->tail_truncated = true;  // The last record never completed.
      break;
    }
    if (rep->first_error.empty()) rep->first_error = error.ToString();
    // Salvage: skip the damaged record, keep going. A damaged text line
    // still ends at its newline unless a record starts inside it (its
    // newline was the damage); a damaged frame's length byte cannot be
    // trusted, so it resumes where the next record decodes.
    pos = IsFrameTag(contents[pos]) ? resync : std::min(end, resync);
  }
  return records;
}

}  // namespace

Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       bool* tail_truncated) {
  if (tail_truncated != nullptr) *tail_truncated = false;
  bool missing = false;
  MOST_ASSIGN_OR_RETURN(std::string contents,
                        ReadFileContents(path, &missing));
  if (missing) return std::vector<WalRecord>{};  // No log yet.
  RecoveryReport rep;
  MOST_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                        DecodeLog(contents, /*strict=*/true, &rep));
  if (tail_truncated != nullptr) *tail_truncated = rep.tail_truncated;
  return records;
}

Result<std::vector<WalRecord>> RecoverWal(const std::string& path,
                                          RecoveryReport* report) {
  obs::TraceSpan span("wal/recover", "storage");
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport();
  bool missing = false;
  MOST_ASSIGN_OR_RETURN(std::string contents,
                        ReadFileContents(path, &missing));
  if (missing) return std::vector<WalRecord>{};  // No log yet.
  return DecodeLog(contents, /*strict=*/false, &rep);
}

}  // namespace most
