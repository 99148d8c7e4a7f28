#include "storage/wal.h"

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

}  // namespace

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
  if (file_ == nullptr) return Status::Internal("WAL is not open");
  obs::TraceSpan span("wal/append", "storage");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t t0 = registry.enabled() ? obs::MonotonicNowNs() : 0;
  Status status = AppendImpl(record);
  if (registry.enabled()) {
    const WalRegistrySeries& series = WalRegistrySeries::Get();
    series.appends->Inc();
    series.append_latency->Observe(
        static_cast<double>(obs::MonotonicNowNs() - t0) * 1e-9);
  }
  return status;
}

Status WalWriter::AppendImpl(const WalRecord& record) {
  std::string line = EncodeWalRecord(record, options_.format_version);
  line += '\n';
  // Device-full / I/O-error injection (distinct from wal/append/write torn
  // writes: nothing reaches the file, as ENOSPC on the first byte would).
  MOST_FAILPOINT("wal/append/enospc");
  if (failed_append_) MOST_RETURN_IF_ERROR(CutFailedAppend());
  FailpointRegistry::WriteFault fault =
      FailpointRegistry::Instance().CheckWrite("wal/append/write",
                                               line.size());
  failed_append_ = true;  // Until the record is complete and flushed.
  if (fault.write_bytes > 0 &&
      std::fwrite(line.data(), 1, fault.write_bytes, file_) !=
          fault.write_bytes) {
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
  size_ += line.size();
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

Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       bool* tail_truncated) {
  if (tail_truncated != nullptr) *tail_truncated = false;
  bool missing = false;
  MOST_ASSIGN_OR_RETURN(std::string contents,
                        ReadFileContents(path, &missing));
  if (missing) return std::vector<WalRecord>{};  // No log yet.

  std::vector<WalRecord> records;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) {
      // Torn tail write: the last record never completed.
      if (tail_truncated != nullptr) *tail_truncated = true;
      break;
    }
    std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    Result<WalRecord> record = DecodeWalRecord(line);
    if (!record.ok()) {
      if (pos >= contents.size()) {
        // Corrupt final record: treat like a torn tail.
        if (tail_truncated != nullptr) *tail_truncated = true;
        break;
      }
      return record.status();  // Mid-file corruption is fatal.
    }
    records.push_back(std::move(record).value());
  }
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

  std::vector<WalRecord> records;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) {
      // Torn tail write: the last record never completed.
      rep.tail_truncated = true;
      ++rep.dropped;
      break;
    }
    std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    Result<WalRecord> record = DecodeWalRecord(line);
    if (!record.ok()) {
      ++rep.dropped;
      if (rep.first_error.empty()) {
        rep.first_error = record.status().ToString();
      }
      continue;  // Salvage: skip the corrupt record, keep going.
    }
    ++rep.applied;
    if (rep.dropped > 0) ++rep.salvaged;
    records.push_back(std::move(record).value());
  }
  return records;
}

}  // namespace most
