// Binary trace codec.
//
// The original study stored trace logs in "a series of trace files" written
// by a user-level collector. We serialize records with a compact
// varint/zigzag encoding (≈20 bytes per record for typical traces versus
// ~100 for the raw struct) behind stream-oriented Writer/Reader classes.
//
// Format:
//   magic "SPRT" | u8 version | records...
//   record := u8 kind | varint delta_time | fields (kind-independent order)
// Times are delta-encoded against the previous record, so merged,
// time-ordered logs compress well.

#ifndef SPRITE_DFS_SRC_TRACE_CODEC_H_
#define SPRITE_DFS_SRC_TRACE_CODEC_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "src/trace/record.h"

namespace sprite {

inline constexpr char kTraceMagic[4] = {'S', 'P', 'R', 'T'};
inline constexpr uint8_t kTraceVersion = 1;

// Low-level varint helpers, exposed for tests.
void PutVarint(std::string& out, uint64_t value);
// Returns the decoded value and advances `pos`; std::nullopt on truncation.
std::optional<uint64_t> GetVarint(std::string_view buffer, size_t& pos);
uint64_t ZigZagEncode(int64_t value);
int64_t ZigZagDecode(uint64_t value);

// Serializes records one at a time to a stream. Writes the header on
// construction; Flush/destructor leave the stream usable.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out);

  void Write(const Record& record);
  // Writes a whole log.
  void WriteAll(const TraceLog& log);
  void Flush();

  uint64_t written_count() const { return written_; }

 private:
  std::ostream& out_;
  SimTime last_time_ = 0;
  uint64_t written_ = 0;
  std::string buffer_;
};

// Reads records back. Validates the header on construction (throws
// std::runtime_error on a bad magic/version).
class TraceReader {
 public:
  explicit TraceReader(std::istream& in);

  // Returns the next record, or std::nullopt at end of stream. Throws
  // std::runtime_error on a corrupt record.
  std::optional<Record> Next();

  // Reads the remainder of the stream.
  TraceLog ReadAll();

 private:
  bool FillTo(size_t bytes_needed);

  std::istream& in_;
  SimTime last_time_ = 0;
  std::string buffer_;
  size_t pos_ = 0;
};

// Whole-log round-trips, built in place: EncodeTrace appends to one string,
// and DecodeTrace parses `bytes` directly into a log sized up front.
std::string EncodeTrace(const TraceLog& log);
TraceLog DecodeTrace(const std::string& bytes);

// Writes/reads a trace file on disk.
void WriteTraceFile(const std::string& path, const TraceLog& log);
TraceLog ReadTraceFile(const std::string& path);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_TRACE_CODEC_H_
