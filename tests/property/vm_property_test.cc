// Vm's run-length working-set bookkeeping against the per-page deque it
// replaced, which this file keeps as the oracle. Each seeded run starts
// from a boot floor of long-lived pages and drives random faults, working-set
// touches (some larger than the pool), LRU evictions, idle-page yields,
// cold-page evictions and crash resets, with clock steps both shorter and
// longer than the preference age and repeated instants. Every result and
// the resident count must match the oracle after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/fs/vm.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

constexpr SimDuration kPreference = 20 * kMinute;

// The pool as it was: one (kind, last reference) record per page, front =
// most recently used; a touch rewrites every page of the working set.
class ReferenceVm {
 public:
  explicit ReferenceVm(int64_t floor_pages) : floor_pages_(floor_pages) { CrashReset(); }

  int64_t resident_pages() const { return static_cast<int64_t>(pages_.size()); }

  void AddPage(PageKind kind, SimTime now) { pages_.push_front(Page{kind, now}); }

  void TouchWorkingSet(SimTime now, int64_t count) {
    const int64_t n = std::min<int64_t>(count, resident_pages());
    for (int64_t i = 0; i < n; ++i) {
      pages_[static_cast<size_t>(i)].last_ref = now;
    }
  }

  Vm::Evicted EvictLru() {
    if (resident_pages() <= floor_pages_) {
      return {};
    }
    const Page page = pages_.back();
    pages_.pop_back();
    return Vm::Evicted{page.kind, true};
  }

  SimDuration EvictableLruAge(SimTime now) const {
    return resident_pages() <= floor_pages_ ? -1 : now - pages_.back().last_ref;
  }

  bool TryYieldIdlePage(SimTime now) {
    if (resident_pages() <= floor_pages_ || now - pages_.back().last_ref < kPreference) {
      return false;
    }
    pages_.pop_back();
    return true;
  }

  void CrashReset() {
    pages_.assign(static_cast<size_t>(floor_pages_), Page{PageKind::kCode, 0});
  }

  int64_t EvictColdPages(int64_t count) {
    int64_t dirty = 0;
    for (int64_t i = 0; i < count && resident_pages() > floor_pages_; ++i) {
      const PageKind kind = pages_.back().kind;
      dirty += kind == PageKind::kModifiedData || kind == PageKind::kStack ? 1 : 0;
      pages_.pop_back();
    }
    return dirty;
  }

 private:
  struct Page {
    PageKind kind;
    SimTime last_ref;
  };

  int64_t floor_pages_;
  std::deque<Page> pages_;
};

class VmWorkingSetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmWorkingSetProperty, RunLengthTimesMatchThePerPageOracle) {
  Rng rng(GetParam());
  const int64_t floor_pages = static_cast<int64_t>(rng.NextBelow(40));
  constexpr int64_t kTotalPages = 4096;
  Vm vm(kTotalPages, kPreference, floor_pages);
  ReferenceVm ref(floor_pages);
  SimTime now = 0;
  int64_t yields = 0;
  int64_t big_touches = 0;
  int64_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    // Mostly short steps, some repeated instants, now and then a long idle
    // gap that ages every page past the preference age.
    const uint64_t gap = rng.NextBelow(100);
    now += gap < 10 ? 0 : gap < 98 ? static_cast<SimDuration>(rng.NextBelow(10 * kSecond))
                                   : kPreference + static_cast<SimDuration>(rng.NextBelow(kMinute));
    // Alternate phases that grow the pool past the largest working set and
    // phases that drain it to the floor; only the latter crash.
    const bool growing = (step / 5000) % 2 == 0;
    const uint64_t op = rng.NextBelow(1000);
    if (op < (growing ? 700u : 200u)) {
      const auto kind = static_cast<PageKind>(rng.NextBelow(4));
      vm.AddPage(kind, now);
      ref.AddPage(kind, now);
    } else if (op < (growing ? 800u : 350u)) {
      // Working sets from a page to past the whole pool.
      const int64_t count = rng.NextBool(0.2)
                                ? ref.resident_pages() + static_cast<int64_t>(rng.NextBelow(64))
                                : static_cast<int64_t>(rng.NextBelow(2048));
      big_touches += count >= ref.resident_pages() ? 1 : 0;
      vm.TouchWorkingSet(now, count);
      ref.TouchWorkingSet(now, count);
    } else if (op < (growing ? 850u : 550u)) {
      const Vm::Evicted got = vm.EvictLru();
      const Vm::Evicted want = ref.EvictLru();
      ASSERT_EQ(got.valid, want.valid) << "step " << step;
      if (want.valid) {
        ASSERT_EQ(got.kind, want.kind) << "step " << step;
      }
    } else if (op < (growing ? 900u : 750u)) {
      const bool yielded = ref.TryYieldIdlePage(now);
      ASSERT_EQ(vm.TryYieldIdlePage(now), yielded) << "step " << step;
      yields += yielded ? 1 : 0;
    } else if (growing || op < 995) {
      const int64_t count = static_cast<int64_t>(rng.NextBelow(growing ? 4 : 96));
      ASSERT_EQ(vm.EvictColdPages(count), ref.EvictColdPages(count)) << "step " << step;
    } else {
      vm.CrashReset();
      ref.CrashReset();
    }
    ASSERT_EQ(vm.resident_pages(), ref.resident_pages()) << "step " << step;
    ASSERT_EQ(vm.EvictableLruAge(now), ref.EvictableLruAge(now)) << "step " << step;
    peak = std::max(peak, vm.resident_pages());
  }
  EXPECT_GT(peak, 2048) << "the pool must outgrow the largest working set";
  EXPECT_GT(yields, 0) << "some pages must age past the preference age";
  EXPECT_GT(big_touches, 0) << "some touches must cover the whole pool";
  // Drain: every page above the floor leaves in the oracle's order.
  while (true) {
    const Vm::Evicted want = ref.EvictLru();
    const Vm::Evicted got = vm.EvictLru();
    ASSERT_EQ(got.valid, want.valid);
    if (!want.valid) {
      break;
    }
    ASSERT_EQ(got.kind, want.kind);
    ASSERT_EQ(vm.EvictableLruAge(now), ref.EvictableLruAge(now));
  }
  EXPECT_EQ(vm.resident_pages(), floor_pages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmWorkingSetProperty, ::testing::Values(1, 2, 3, 1991));

}  // namespace
}  // namespace sprite
