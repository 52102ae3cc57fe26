#include "src/fs/vm.h"

#include <algorithm>

namespace sprite {

Vm::Vm(int64_t total_pages, SimDuration preference_age, int64_t floor_pages)
    : total_pages_(total_pages), preference_age_(preference_age), floor_pages_(floor_pages) {
  CrashReset();
}

void Vm::AddPage(PageKind kind, SimTime now) {
  kinds_.push_front(kind);
  runs_.push_front(Run{now, 1});
}

void Vm::TouchWorkingSet(SimTime now, int64_t count) {
  const int64_t n = std::min<int64_t>(count, resident_pages());
  if (n <= 0) {
    return;
  }
  for (int64_t left = n; left > 0;) {
    Run& mru = runs_.front();
    const int64_t taken = std::min(left, mru.pages);
    mru.pages -= taken;
    left -= taken;
    if (mru.pages == 0) {
      runs_.pop_front();
    }
  }
  runs_.push_front(Run{now, n});
}

void Vm::PopLruRuns(int64_t count) {
  while (count > 0) {
    Run& lru = runs_.back();
    const int64_t taken = std::min(count, lru.pages);
    lru.pages -= taken;
    count -= taken;
    if (lru.pages == 0) {
      runs_.pop_back();
    }
  }
}

Vm::Evicted Vm::EvictLru() {
  if (resident_pages() <= floor_pages_) {
    return {};
  }
  const PageKind kind = kinds_.back();
  kinds_.pop_back();
  PopLruRuns(1);
  return Evicted{kind, true};
}

SimDuration Vm::EvictableLruAge(SimTime now) const {
  if (resident_pages() <= floor_pages_) {
    return -1;
  }
  return now - runs_.back().last_ref;
}

bool Vm::TryYieldIdlePage(SimTime now) {
  if (resident_pages() <= floor_pages_) {
    return false;
  }
  if (now - runs_.back().last_ref < preference_age_) {
    return false;
  }
  kinds_.pop_back();
  PopLruRuns(1);
  return true;
}

void Vm::CrashReset() {
  kinds_.assign(static_cast<size_t>(std::max<int64_t>(floor_pages_, 0)), PageKind::kCode);
  runs_.clear();
  if (floor_pages_ > 0) {
    runs_.push_back(Run{0, floor_pages_});
  }
}

int64_t Vm::EvictColdPages(int64_t count) {
  const int64_t n = std::max<int64_t>(0, std::min(count, resident_pages() - floor_pages_));
  int64_t dirty = 0;
  for (int64_t i = 0; i < n; ++i) {
    const PageKind kind = kinds_.back();
    if (kind == PageKind::kModifiedData || kind == PageKind::kStack) {
      ++dirty;
    }
    kinds_.pop_back();
  }
  PopLruRuns(n);
  return dirty;
}

}  // namespace sprite
