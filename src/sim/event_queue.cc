#include "src/sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace sprite {

void EventQueue::Schedule(SimTime at, Callback callback) {
  if (at < now_) {
    // Thrown before any queue state changes: sequence numbers, the pool,
    // and the heap are untouched, so a caught rejection leaves the queue
    // exactly as it was (strong guarantee).
    throw std::logic_error("EventQueue::Schedule: scheduling into the past (now=" +
                           std::to_string(now_) + " us, requested=" + std::to_string(at) +
                           " us, pending=" + std::to_string(heap_.size()) + " events)");
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = std::move(callback);
  } else {
    slot = static_cast<uint32_t>(pool_.size());
    pool_.push_back(std::move(callback));
  }
  heap_.push_back(HeapItem{at, next_sequence_++, slot});
  SiftUp(heap_.size() - 1);
  max_pending_ = std::max(max_pending_, heap_.size());
}

void EventQueue::ScheduleAfter(SimDuration delay, Callback callback) {
  if (delay < 0) {
    throw std::logic_error("EventQueue::ScheduleAfter: negative delay");
  }
  Schedule(now_ + delay, std::move(callback));
}

void EventQueue::SiftUp(size_t index) {
  HeapItem item = heap_[index];
  while (index > 0) {
    const size_t parent = (index - 1) >> 2;
    if (!Earlier(item, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = item;
}

void EventQueue::SiftDown(size_t index) {
  HeapItem item = heap_[index];
  const size_t size = heap_.size();
  for (;;) {
    const size_t first_child = (index << 2) + 1;
    if (first_child >= size) {
      break;
    }
    size_t best = first_child;
    const size_t last_child = std::min(first_child + 4, size);
    for (size_t child = first_child + 1; child < last_child; ++child) {
      if (Earlier(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Earlier(heap_[best], item)) {
      break;
    }
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = item;
}

bool EventQueue::RunNext() {
  if (heap_.empty()) {
    return false;
  }
  const HeapItem top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
  now_ = top.at;
  frontier_ = top.sequence + 1;
  ++dispatched_;
  // Move the callback out and release the slot before invoking: the
  // callback may schedule new events, which can grow the pool and would
  // otherwise invalidate a reference into it.
  Callback callback = std::move(pool_[top.slot]);
  free_slots_.push_back(top.slot);
  callback();
  return true;
}

void EventQueue::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().at <= deadline) {
    RunNext();
  }
  if (now_ <= deadline) {
    // Everything scheduled so far at or before the deadline has run. Skip
    // one sequence number so that stamps taken after this return sort past
    // the frontier even when no event is scheduled in between.
    now_ = deadline;
    frontier_ = ++next_sequence_;
  }
}

void EventQueue::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  while (RunNext()) {
    if (++ran > max_events) {
      throw std::runtime_error("EventQueue::RunAll: event budget exceeded (runaway loop?)");
    }
  }
}

PeriodicTask::PeriodicTask(EventQueue& queue, SimTime first_at, SimDuration period,
                           std::function<void(SimTime)> callback) {
  if (period <= 0) {
    throw std::logic_error("PeriodicTask: period must be positive");
  }
  state_ = std::make_shared<State>(State{queue, period, std::move(callback)});
  Arm(state_, first_at);
}

PeriodicTask::~PeriodicTask() { Cancel(); }

void PeriodicTask::Cancel() { state_->cancelled = true; }

void PeriodicTask::Arm(std::shared_ptr<State> state, SimTime at) {
  // The scheduled closure owns a reference to the shared state, so a tick
  // that fires after the handle is destroyed sees cancelled == true and
  // drops out; the closure itself fits the event slot's inline buffer.
  EventQueue& queue = state->queue;
  queue.Schedule(at, [state = std::move(state), at]() mutable {
    if (state->cancelled) {
      return;
    }
    state->callback(at);
    if (!state->cancelled) {
      const SimTime next = at + state->period;
      Arm(std::move(state), next);
    }
  });
}

}  // namespace sprite
