// Host-time spans recorded by the benchmark driver around its own calls into
// the sprite-dfs libraries.
//
// The driver cannot see inside a library call, so every span here sits at a
// boundary the driver owns: Generator construction, the warm-up and measured
// windows, each report call, and one "sim.window" span per simulated minute
// (ticked by a driver-owned PeriodicTask on the simulation's queue). Each
// span carries wall time from the monotonic clock and this thread's CPU
// time, so a gap between the two shows time the process was not running.
// Spans stay in memory and are written as JSON once the run ends.

#ifndef SPRITE_DFS_PERFBENCH_SPANS_H_
#define SPRITE_DFS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

// Monotonic wall clock, nanoseconds.
int64_t WallNs();
// CPU time consumed by the calling thread, nanoseconds.
int64_t ThreadCpuNs();

struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1 for a root span
  const char* name = "";
  int64_t start_ns = 0;  // wall clock, relative to the recorder's origin
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;   // thread CPU time spent between start and end
  int64_t events = -1;  // sim.window only: simulation events dispatched in it
};

class SpanRecorder {
 public:
  // A disabled recorder keeps nothing and reads no clock.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span as a child of the innermost open span. `name` must be a
  // string literal. Returns the span id, or -1 when disabled.
  int Begin(const char* name);
  // Closes span `id` and any span still open inside it; a no-op when `id`
  // is not open.
  void End(int id, int64_t events = -1);
  // Id of the innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time of every span: its duration minus the part of its interval
  // covered by its children. Indexed by span id.
  std::vector<int64_t> SelfNs() const;

  // Writes a JSON array with one object per span, self time included.
  // Times are nanoseconds of the monotonic clock from the first span.
  void WriteJson(std::ostream& out) const;

 private:
  bool enabled_;
  int64_t origin_ns_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::vector<int64_t> open_cpu_;
};

// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~SpanScope() { recorder_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // SPRITE_DFS_PERFBENCH_SPANS_H_
