// Discrete-event simulation kernel.
//
// The distributed file system in src/fs and the workload generator in
// src/workload both run on this queue. Events scheduled for the same
// timestamp run in scheduling (FIFO) order, which makes runs deterministic
// given a fixed seed.
//
// Storage layout (hot path): callbacks live in a slot pool recycled through
// a freelist, and the pending set is an implicit four-ary min-heap of
// 24-byte {at, sequence, slot} records. Scheduling an event whose closure
// fits UniqueCallback's inline buffer performs no heap allocation at all;
// the old representation (std::shared_ptr<std::function> per entry) paid
// two per event. The dispatch order is a total order on (at, sequence), so
// the heap shape is unobservable — four-ary vs. binary cannot change any
// simulation output.

#ifndef SPRITE_DFS_SRC_SIM_EVENT_QUEUE_H_
#define SPRITE_DFS_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/util/unique_callback.h"
#include "src/util/units.h"

namespace sprite {

class EventQueue {
 public:
  using Callback = UniqueCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Advances only as events are dispatched.
  SimTime now() const { return now_; }

  // Schedules `callback` at absolute time `at`. Scheduling in the past is an
  // error (throws std::logic_error) — it would silently reorder causality.
  // The rejection happens before any state changes, so the queue remains
  // fully usable afterwards (strong guarantee). `at == now()` is allowed and
  // dispatches after already-pending events at the same timestamp (FIFO
  // tie-break).
  void Schedule(SimTime at, Callback callback);

  // Schedules `callback` `delay` microseconds from now (delay >= 0).
  void ScheduleAfter(SimDuration delay, Callback callback);

  // Runs the earliest pending event. Returns false if the queue is empty.
  bool RunNext();

  // Runs events until the queue is empty or the next event is later than
  // `deadline`; afterwards now() == max(now, deadline).
  //
  // Boundary contract (pinned by tests/sim/event_queue_test.cc):
  //   * the deadline is inclusive — an event at exactly `deadline` runs;
  //   * a deadline in the past is a no-op and never rewinds now();
  //   * time only jumps forward to `deadline` after the last eligible event,
  //     so callbacks observe their own timestamps, not the deadline.
  void RunUntil(SimTime deadline);

  // Drains the queue completely. `max_events` guards against runaway
  // self-rescheduling loops; throws std::runtime_error if exceeded.
  void RunAll(uint64_t max_events = 1ULL << 40);

  size_t pending_count() const { return heap_.size(); }
  uint64_t dispatched_count() const { return dispatched_; }
  // High-water mark of the pending heap over the queue's lifetime. Both
  // accessors feed "sim.queue.*" gauges in the metrics registry.
  size_t max_pending_count() const { return max_pending_; }

  // Dispatch position, for components that need to know whether an event
  // would have run without scheduling one (the server's queue-depth count).
  // schedule_count() is the sequence number the next Schedule call takes.
  // Passed(at, stamp) is true once dispatch has gone past an event for `at`
  // scheduled when schedule_count() read `stamp`. Inside a callback that is
  // exactly when FIFO order would have run it first: `at` is earlier, or
  // equal and the stamp was taken before the running event was scheduled.
  // After RunUntil it holds for every stamp taken before RunUntil returned
  // with `at` at or before the deadline. Only dispatch and RunUntil move
  // now(): after RunAll, `at` past the last event has not passed.
  uint64_t schedule_count() const { return next_sequence_; }
  bool Passed(SimTime at, uint64_t stamp) const {
    return at < now_ || (at == now_ && stamp < frontier_);
  }

 private:
  // Heap records are value types kept apart from the callback storage so
  // sift operations move 24 bytes, never a closure.
  struct HeapItem {
    SimTime at;
    uint64_t sequence;
    uint32_t slot;
  };

  static bool Earlier(const HeapItem& a, const HeapItem& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.sequence < b.sequence;
  }

  void SiftUp(size_t index);
  void SiftDown(size_t index);

  // Implicit four-ary min-heap on (at, sequence): same total order as the
  // old binary priority_queue, half the tree depth, and all four children
  // of a node share a cache line pair.
  std::vector<HeapItem> heap_;
  // Slot pool: heap items index into pool_; free_slots_ recycles storage.
  // Slot numbers carry no ordering information, so reuse order cannot
  // perturb dispatch order.
  std::vector<Callback> pool_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  // Every event at now_ with a sequence below this has been dispatched.
  // RunNext sets it past the running event; RunUntil's jump to its deadline
  // sets it past everything scheduled so far.
  uint64_t frontier_ = 0;
  uint64_t dispatched_ = 0;
  size_t max_pending_ = 0;
};

// Repeats a callback at a fixed period until cancelled or the owning handle
// is destroyed. Models Sprite's kernel daemons (the 5-second dirty-block
// scan) and the user-level counter collector.
class PeriodicTask {
 public:
  // Starts firing at `first_at`, then every `period` thereafter.
  // `first_at == queue.now()` is valid: the first firing dispatches exactly
  // once at the current time (no double fire, no skip).
  PeriodicTask(EventQueue& queue, SimTime first_at, SimDuration period,
               std::function<void(SimTime)> callback);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Cancel();
  bool cancelled() const { return state_->cancelled; }

 private:
  // All long-lived state sits behind one shared_ptr allocated at
  // construction; each rearm captures only {state, at}, which fits the
  // pooled event slot inline — ticking allocates nothing.
  struct State {
    EventQueue& queue;
    SimDuration period;
    std::function<void(SimTime)> callback;
    bool cancelled = false;
  };

  static void Arm(std::shared_ptr<State> state, SimTime at);

  std::shared_ptr<State> state_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_SIM_EVENT_QUEUE_H_
