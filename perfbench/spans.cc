#include "spans.h"

#include <time.h>

#include <algorithm>

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    origin_ns_ = WallNs();
  }
}

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  SpanRecord span;
  span.id = static_cast<int>(spans_.size());
  span.parent = current();
  span.name = name;
  span.start_ns = WallNs() - origin_ns_;
  spans_.push_back(span);
  open_.push_back(span.id);
  open_cpu_.push_back(ThreadCpuNs());
  return span.id;
}

void SpanRecorder::End(int id, int64_t events) {
  if (!enabled_ || std::find(open_.begin(), open_.end(), id) == open_.end()) {
    return;
  }
  const int64_t end_ns = WallNs() - origin_ns_;
  const int64_t cpu_ns = ThreadCpuNs();
  // Spans still open inside `id` (left by an exception) end with it.
  while (true) {
    SpanRecord& span = spans_[static_cast<size_t>(open_.back())];
    span.end_ns = end_ns;
    span.cpu_ns = cpu_ns - open_cpu_.back();
    open_.pop_back();
    open_cpu_.pop_back();
    if (span.id == id) {
      span.events = events;
      return;
    }
  }
}

std::vector<int64_t> SpanRecorder::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (const SpanRecord& span : spans_) {
    self[static_cast<size_t>(span.id)] = span.end_ns - span.start_ns;
  }
  // Children of one parent never overlap (they nest on one stack), so the
  // part of the parent they cover is the sum of their clipped durations.
  for (const SpanRecord& child : spans_) {
    if (child.parent < 0) {
      continue;
    }
    const SpanRecord& parent = spans_[static_cast<size_t>(child.parent)];
    const int64_t covered = std::min(child.end_ns, parent.end_ns) -
                            std::max(child.start_ns, parent.start_ns);
    self[static_cast<size_t>(child.parent)] -= std::max<int64_t>(0, covered);
  }
  return self;
}

void SpanRecorder::WriteJson(std::ostream& out) const {
  const std::vector<int64_t> self = SelfNs();
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ", ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"cpu_ns\": " << s.cpu_ns
        << ", \"self_ns\": " << self[i];
    if (s.events >= 0) {
      out << ", \"events\": " << s.events;
    }
    out << "}";
  }
  out << "]";
}

}  // namespace perfbench
