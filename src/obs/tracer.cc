#include "src/obs/tracer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace sprite {

namespace {

// Minimal JSON string escaping; names here are ASCII identifiers, but a
// metric or process name with a quote/backslash must not corrupt the file.
void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendInt(std::string& out, int64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Hands the export to the stream in pieces: events are formatted into one
// buffer, which is written out and reused once it passes kFlushBytes, so
// the body is never held in memory whole.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) { buf_.reserve(2 * kFlushBytes); }

  // Returns the buffer positioned for the next event (after its separator).
  std::string& Next() {
    if (buf_.size() >= kFlushBytes) {
      out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      buf_.clear();
    }
    if (!first_) {
      buf_ += ",\n";
    }
    first_ = false;
    return buf_;
  }
  void Finish() { out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size())); }

 private:
  static constexpr size_t kFlushBytes = 64 * 1024;
  std::ostream& out_;
  std::string buf_;
  bool first_ = true;
};

// ---- Span log encoding ----------------------------------------------------

constexpr size_t kInitialSiteSlots = 64;
constexpr size_t kChunkBytes = 64 * 1024;
// Largest record: a site id and two track ids (<= 5 varint bytes each), a
// start delta, a duration and Span::kMaxArgs values (<= 10 bytes each).
constexpr ptrdiff_t kMaxRecordBytes = 3 * 5 + (2 + Span::kMaxArgs) * 10;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) { return static_cast<int64_t>((v >> 1) ^ (0 - (v & 1))); }

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

uint64_t GetVarint(const uint8_t*& p) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      return v;
    }
  }
}

uint64_t SiteHash(const char* name, const char* category, const Span::Arg* args, int num_args) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = (reinterpret_cast<uintptr_t>(name) ^ static_cast<uint64_t>(num_args)) * kMul;
  h = (h ^ reinterpret_cast<uintptr_t>(category)) * kMul;
  for (int k = 0; k < num_args; ++k) {
    h = (h ^ reinterpret_cast<uintptr_t>(args[k].key)) * kMul;
  }
  return h ^ (h >> 32);
}

}  // namespace

int32_t CounterTrackPid(std::string_view name) {
  for (const auto& [prefix, base] :
       {std::pair<std::string_view, int32_t>{"server.", kServerPidBase},
        std::pair<std::string_view, int32_t>{"client.", kClientPidBase}}) {
    if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
      continue;
    }
    int32_t id = 0;
    size_t i = prefix.size();
    bool any_digit = false;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9' && id < 100000) {
      id = id * 10 + (name[i] - '0');
      any_digit = true;
      ++i;
    }
    if (any_digit && i < name.size() && name[i] == '.') {
      return base + id;
    }
  }
  return kMetricsPid;
}

SpanTracer::SpanTracer() : site_slots_(kInitialSiteSlots, 0) {}

uint32_t SpanTracer::Intern(const char* name, const char* category, const Span::Arg* args,
                            int num_args) {
  const uint64_t hash = SiteHash(name, category, args, num_args);
  const size_t mask = site_slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  for (; site_slots_[i] != 0; i = (i + 1) & mask) {
    const Site& site = sites_[site_slots_[i] - 1];
    if (site.name != name || site.category != category || site.num_args != num_args) {
      continue;
    }
    int k = 0;
    while (k < num_args && site.keys[k] == args[k].key) {
      ++k;
    }
    if (k == num_args) {
      return site_slots_[i] - 1;
    }
  }
  Site site{name, category, {}, num_args, hash};
  for (int k = 0; k < num_args; ++k) {
    site.keys[k] = args[k].key;
  }
  const auto id = static_cast<uint32_t>(sites_.size());
  sites_.push_back(site);
  site_slots_[i] = id + 1;
  if (2 * sites_.size() > site_slots_.size()) {
    GrowSiteIndex();
  }
  return id;
}

void SpanTracer::GrowSiteIndex() {
  site_slots_.assign(2 * site_slots_.size(), 0);
  const size_t mask = site_slots_.size() - 1;
  for (size_t id = 0; id < sites_.size(); ++id) {
    size_t i = static_cast<size_t>(sites_[id].hash) & mask;
    while (site_slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    site_slots_[i] = static_cast<uint32_t>(id + 1);
  }
}

void SpanTracer::StartChunk() {
  chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(kChunkBytes));
  cursor_ = chunks_.back().get();
  limit_ = cursor_ + kChunkBytes;
}

void SpanTracer::Emit(const char* name, const char* category, SpanTrack track, SimTime start,
                      SimDuration duration, std::initializer_list<Span::Arg> args) {
  const int num_args = static_cast<int>(std::min<size_t>(args.size(), Span::kMaxArgs));
  const uint32_t site = Intern(name, category, args.begin(), num_args);
  if (limit_ - cursor_ < kMaxRecordBytes) {
    StartChunk();
  }
  uint8_t* p = cursor_;
  p = PutVarint(p, site);
  p = PutVarint(p, ZigZag(track.pid));
  p = PutVarint(p, ZigZag(track.tid));
  // The delta wraps in unsigned arithmetic, so any two starts round-trip.
  p = PutVarint(p, ZigZag(static_cast<int64_t>(static_cast<uint64_t>(start) -
                                               static_cast<uint64_t>(last_start_))));
  p = PutVarint(p, ZigZag(duration));
  for (int k = 0; k < num_args; ++k) {
    p = PutVarint(p, ZigZag(args.begin()[k].value));
  }
  cursor_ = p;
  last_start_ = start;
  ++count_;
}

void SpanTracer::Reset() {
  chunks_.clear();
  cursor_ = nullptr;
  limit_ = nullptr;
  count_ = 0;
  last_start_ = 0;
}

SpanTracer::Cursor SpanTracer::Begin() const {
  Cursor cursor;
  if (!chunks_.empty()) {
    cursor.pos = chunks_.front().get();
  }
  return cursor;
}

uint32_t SpanTracer::DecodeNext(Cursor& cursor, Span& span) const {
  // Emit opens a new chunk exactly when fewer than kMaxRecordBytes remain,
  // so the same test tells the reader where a chunk's records end.
  if (chunks_[cursor.chunk].get() + kChunkBytes - cursor.pos < kMaxRecordBytes) {
    cursor.pos = chunks_[++cursor.chunk].get();
  }
  const uint8_t* p = cursor.pos;
  const auto site_id = static_cast<uint32_t>(GetVarint(p));
  const Site& site = sites_[site_id];
  span.name = site.name;
  span.category = site.category;
  span.track.pid = static_cast<int32_t>(UnZigZag(GetVarint(p)));
  span.track.tid = static_cast<int32_t>(UnZigZag(GetVarint(p)));
  span.start = static_cast<SimTime>(static_cast<uint64_t>(cursor.last_start) +
                                    static_cast<uint64_t>(UnZigZag(GetVarint(p))));
  span.duration = UnZigZag(GetVarint(p));
  span.num_args = site.num_args;
  for (int k = 0; k < site.num_args; ++k) {
    span.args[k].key = site.keys[k];
    span.args[k].value = UnZigZag(GetVarint(p));
  }
  std::fill(span.args + site.num_args, span.args + Span::kMaxArgs, Span::Arg{});
  cursor.pos = p;
  cursor.last_start = span.start;
  return site_id;
}

void SpanTracer::WriteChromeTrace(std::ostream& out,
                                  const MetricsRegistry* metrics) const {
  out << "{\"traceEvents\":[\n";
  EventWriter events(out);

  for (const auto& [pid, name] : process_names_) {
    std::string& e = events.Next();
    e += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    AppendInt(e, pid);
    e += ",\"tid\":0,\"args\":{\"name\":\"";
    AppendEscaped(e, name);
    e += "\"}}";
  }

  // Each site's constant text is escaped once: the event head up to the
  // pid, and each arg key with its separator.
  struct SiteText {
    std::string head;
    std::string keys[Span::kMaxArgs];
  };
  std::vector<SiteText> text(sites_.size());
  for (size_t id = 0; id < sites_.size(); ++id) {
    const Site& site = sites_[id];
    SiteText& t = text[id];
    t.head = "{\"ph\":\"X\",\"name\":\"";
    AppendEscaped(t.head, site.name);
    t.head += "\",\"cat\":\"";
    AppendEscaped(t.head, site.category);
    t.head += "\",\"pid\":";
    for (int k = 0; k < site.num_args; ++k) {
      t.keys[k] = k == 0 ? ",\"args\":{\"" : ",\"";
      AppendEscaped(t.keys[k], site.keys[k]);
      t.keys[k] += "\":";
    }
  }
  Cursor cursor = Begin();
  Span span;
  for (size_t n = 0; n < count_; ++n) {
    const SiteText& t = text[DecodeNext(cursor, span)];
    std::string& e = events.Next();
    e += t.head;
    AppendInt(e, span.track.pid);
    e += ",\"tid\":";
    AppendInt(e, span.track.tid);
    e += ",\"ts\":";
    AppendInt(e, span.start);
    e += ",\"dur\":";
    AppendInt(e, span.duration);
    for (int k = 0; k < span.num_args; ++k) {
      e += t.keys[k];
      AppendInt(e, span.args[k].value);
    }
    e += span.num_args > 0 ? "}}" : "}";
  }

  if (metrics != nullptr) {
    const MetricsTimeSeries& series = metrics->series();
    for (size_t i = 0; i < series.size(); ++i) {
      const MetricsWindow& window = series.window(i);
      for (const WindowSample& s : window.samples) {
        if (s.kind == WindowSample::Kind::kLatency) {
          continue;  // distributions do not render as counter tracks
        }
        std::string& e = events.Next();
        e += "{\"ph\":\"C\",\"name\":\"";
        AppendEscaped(e, s.name);
        e += "\",\"pid\":";
        AppendInt(e, CounterTrackPid(s.name));
        e += ",\"tid\":0,\"ts\":";
        AppendInt(e, window.end);
        e += ",\"args\":{\"value\":";
        AppendInt(e, s.value);
        e += "}}";
      }
    }
    if (series.size() > 0) {
      std::string& e = events.Next();
      e += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
      AppendInt(e, kMetricsPid);
      e += ",\"tid\":0,\"args\":{\"name\":\"metrics\"}}";
    }
  }

  events.Finish();
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace sprite
