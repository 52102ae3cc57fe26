// Consistency-algorithm overhead simulation (Table 12).
//
// As in the paper, the simulator replays the read/write requests made to
// write-shared files (the pass-through events Sprite logs while a file is
// uncacheable) against three consistency mechanisms and reports, for each:
//   * bytes transferred by the algorithm / bytes the applications requested,
//   * remote procedure calls / read-write events requested.
// Caches are infinitely large (blocks leave only for consistency reasons),
// the 30-second delayed-write policy is modeled, and token recalls are
// piggybacked with dirty-data transfers.

#ifndef SPRITE_DFS_SRC_CONSISTENCY_OVERHEAD_H_
#define SPRITE_DFS_SRC_CONSISTENCY_OVERHEAD_H_

#include <cstdint>

#include "src/trace/record.h"
#include "src/util/units.h"

namespace sprite {

// The consistency algorithms Section 5.6 of the paper compares by
// trace-driven simulation. The live cluster runs only kSprite's rule.
enum class ConsistencyPolicy {
  // Files under concurrent write-sharing become uncacheable until closed by
  // *all* clients (the shipped Sprite mechanism).
  kSprite,
  // Like kSprite, but a file becomes cacheable again as soon as enough
  // clients close it to end the concurrent write-sharing.
  kSpriteModified,
  // Token-based (Locus/Echo/DEcorum style): always cacheable on at least
  // one client; conflicting opens recall tokens.
  kToken,
};

struct OverheadResult {
  int64_t bytes_requested = 0;   // bytes applications asked for
  int64_t events_requested = 0;  // read/write events applications issued
  int64_t bytes_transferred = 0; // bytes the algorithm moved
  int64_t rpcs = 0;              // remote procedure calls the algorithm made

  double byte_ratio() const {
    return bytes_requested > 0
               ? static_cast<double>(bytes_transferred) / static_cast<double>(bytes_requested)
               : 0.0;
  }
  double rpc_ratio() const {
    return events_requested > 0
               ? static_cast<double>(rpcs) / static_cast<double>(events_requested)
               : 0.0;
  }
};

// Simulates one consistency policy over the write-shared accesses in `log`.
OverheadResult SimulateConsistencyOverhead(const TraceLog& log, ConsistencyPolicy policy,
                                           SimDuration writeback_delay = 30 * kSecond);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_CONSISTENCY_OVERHEAD_H_
