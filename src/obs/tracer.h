// Sim-time span tracer with Chrome trace-event / Perfetto export.
//
// Components emit spans — named intervals of simulated time on a track —
// for the RPC lifecycle (issue, retry/backoff, wire transfer, server
// service), cache miss fills, delayed-write cleanings, and consistency
// recalls. WriteChromeTrace renders the span stream as Chrome trace-event
// JSON ("X" complete events in the JSON object format), which loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track conventions: each simulated machine is a "process" (clients at
// pid 100+id, servers at pid 1000+id) with one main track, named via trace
// metadata events. Timestamps are simulated microseconds, which is exactly
// the unit the trace-event format expects.
//
// Storage is an append-only span log. Span names, categories, and argument
// keys are string literals owned by the emitting call sites, and the
// tracer interns them BY POINTER: each distinct (name, category, arg keys)
// tuple is one "site", stored once. A span is then a varint record (site
// id, track, start as a zigzag delta from the previous span, duration, arg
// values), 13 bytes on average on perfbench's `observed` workload,
// appended to fixed-size chunks that are never copied as the log grows.
// Emission allocates only when it opens a new chunk or interns a new site.
// spans() decodes the log in emission order; WriteChromeTrace streams it
// to the output through a bounded buffer.

#ifndef SPRITE_DFS_SRC_OBS_TRACER_H_
#define SPRITE_DFS_SRC_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/units.h"

namespace sprite {

// One row in the trace viewer; pid groups rows into processes.
struct SpanTrack {
  int32_t pid = 0;
  int32_t tid = 1;

  bool operator==(const SpanTrack&) const = default;
};

inline constexpr int32_t kClientPidBase = 100;
inline constexpr int32_t kServerPidBase = 1000;
inline constexpr int32_t kMetricsPid = 9999;

inline constexpr SpanTrack ClientTrack(int64_t client) {
  return SpanTrack{kClientPidBase + static_cast<int32_t>(client), 1};
}
inline constexpr SpanTrack ServerTrack(int64_t server) {
  return SpanTrack{kServerPidBase + static_cast<int32_t>(server), 1};
}

// Process a counter/gauge name belongs to in the trace export: per-machine
// instruments ("server.<N>.x", "client.<N>.x") land on that machine's
// process so their counter tracks line up with its spans; everything else
// goes to the synthetic metrics process.
int32_t CounterTrackPid(std::string_view name);

struct Span {
  struct Arg {
    const char* key = "";
    int64_t value = 0;

    bool operator==(const Arg&) const = default;
  };
  static constexpr int kMaxArgs = 6;

  const char* name = "";
  const char* category = "";
  SpanTrack track;
  SimTime start = 0;
  SimDuration duration = 0;
  Arg args[kMaxArgs] = {};
  int num_args = 0;

  bool operator==(const Span& other) const {
    if (std::string_view(name) != other.name ||
        std::string_view(category) != other.category || !(track == other.track) ||
        start != other.start || duration != other.duration || num_args != other.num_args) {
      return false;
    }
    for (int i = 0; i < num_args; ++i) {
      if (!(args[i] == other.args[i]) ||
          std::string_view(args[i].key) != other.args[i].key) {
        return false;
      }
    }
    return true;
  }
};

class SpanTracer {
 public:
  class SpanView;

  SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void SetProcessName(int32_t pid, std::string name) {
    process_names_[pid] = std::move(name);
  }

  // Records one span. `name`, `category`, and arg keys must be string
  // literals (or otherwise outlive the tracer and never change): the log
  // stores them once per distinct pointer tuple. Extra args beyond
  // Span::kMaxArgs are dropped.
  void Emit(const char* name, const char* category, SpanTrack track, SimTime start,
            SimDuration duration, std::initializer_list<Span::Arg> args = {});

  // The recorded spans in emission order. size() and empty() are O(1);
  // iterating decodes one span at a time. Emit and Reset invalidate
  // iterators.
  SpanView spans() const;
  // Drops recorded spans (track names are wiring, not measurements, and are
  // kept) — used to discard a warmup window.
  void Reset();

  // Writes the full trace as Chrome trace-event JSON. When `metrics` is
  // non-null, every retained window's counters and gauges are exported as
  // "C" (counter) events at the window's end, on the owning machine's
  // process or a synthetic metrics process (CounterTrackPid), so Perfetto
  // plots them as counter tracks alongside the spans.
  void WriteChromeTrace(std::ostream& out, const MetricsRegistry* metrics = nullptr) const;

 private:
  // One interned emission site: the literal pointers every span from it
  // shares.
  struct Site {
    const char* name;
    const char* category;
    const char* keys[Span::kMaxArgs];
    int num_args;
    uint64_t hash;  // of the pointers above, placing the site in site_slots_
  };
  // A read position in the log.
  struct Cursor {
    size_t chunk = 0;
    const uint8_t* pos = nullptr;
    SimTime last_start = 0;
  };

  uint32_t Intern(const char* name, const char* category, const Span::Arg* args, int num_args);
  void GrowSiteIndex();
  void StartChunk();
  Cursor Begin() const;
  // Decodes the record at `cursor` into `span`, advances past it, and
  // returns the record's site id.
  uint32_t DecodeNext(Cursor& cursor, Span& span) const;

  std::vector<Site> sites_;
  // Open-addressed (linear probing, load <= 1/2) over sites_: 0 marks an
  // empty slot, otherwise the slot holds a site id + 1.
  std::vector<uint32_t> site_slots_;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  uint8_t* cursor_ = nullptr;  // write position in chunks_.back()
  uint8_t* limit_ = nullptr;   // end of chunks_.back()
  size_t count_ = 0;
  SimTime last_start_ = 0;     // delta base of the next record
  std::map<int32_t, std::string> process_names_;
};

class SpanTracer::SpanView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using difference_type = std::ptrdiff_t;
    using pointer = const Span*;
    using reference = const Span&;

    iterator() = default;
    const Span& operator*() const { return span_; }
    const Span* operator->() const { return &span_; }
    iterator& operator++() {
      if (++index_ < tracer_->count_) {
        tracer_->DecodeNext(cursor_, span_);
      }
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& other) const { return index_ == other.index_; }

   private:
    friend class SpanView;
    iterator(const SpanTracer* tracer, size_t index) : tracer_(tracer), index_(index) {
      if (index_ < tracer_->count_) {
        cursor_ = tracer_->Begin();
        tracer_->DecodeNext(cursor_, span_);
      }
    }

    const SpanTracer* tracer_ = nullptr;
    size_t index_ = 0;
    Cursor cursor_;
    Span span_;
  };

  size_t size() const { return tracer_->count_; }
  bool empty() const { return tracer_->count_ == 0; }
  iterator begin() const { return iterator(tracer_, 0); }
  iterator end() const { return iterator(tracer_, tracer_->count_); }

 private:
  friend class SpanTracer;
  explicit SpanView(const SpanTracer* tracer) : tracer_(tracer) {}

  const SpanTracer* tracer_;
};

inline SpanTracer::SpanView SpanTracer::spans() const { return SpanView(this); }

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_TRACER_H_
