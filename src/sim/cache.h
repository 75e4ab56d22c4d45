// A single set-associative cache level with true-LRU replacement.
// Addresses handled here are line addresses (byte address >> line bits).
//
// Layout: one flat array of uint64_t, blocked by set. Set s occupies `ways`
// consecutive words, its tags in recency order: slot 0 is the most recently
// used line and invalid ways sit only at the tail, so the last slot, when
// valid, is the LRU victim. An invalid way holds the sentinel tag
// kInvalidTag, which no line address can equal: a line address is a byte
// address shifted right by the line bits, so its top bits are zero.
//
// Reset: a set can only hold a line after an Install found it empty, so the
// cache lists the sets where that happened since the last reset, and Reset
// invalidates just those. A machine reset between short runs then costs what
// the runs touched, not the whole array. Once more than num_sets /
// kTrackedSetsDivisor sets are listed the list stops growing and Reset
// refills the whole array, as it always did.
//
// Recycling: a destroyed Cache runs Reset and hands its array to a
// process-wide free list, and a new Cache takes a listed array with exactly
// its word count before it allocates one. Reset leaves every word kInvalidTag,
// which is also what a fresh array is filled with, so a recycled array cannot
// be told apart from a new one and no simulated number depends on reuse. What
// it saves is the host's page faults: a SkylakeLike machine's 1.13 MiB of
// arrays would otherwise go back to the OS with each machine and be faulted in
// again by the next. The list holds at most 32 MiB (about 28 SkylakeLike
// machines); an array that would cross that is freed. It is mutex-guarded,
// so machines may be built and destroyed on different threads, and it is a
// function-local singleton that is never destroyed, so a Cache destroyed
// during static destruction (a static Machine at exit) never touches a dead
// list.
#ifndef YIELDHIDE_SRC_SIM_CACHE_H_
#define YIELDHIDE_SRC_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/sim/config.h"

namespace yieldhide::sim {

class Cache {
 public:
  explicit Cache(const CacheLevelConfig& config);
  // Resets the array and lists it for the next Cache of the same geometry.
  ~Cache();
  // A copy allocates its own array; a moved-from cache holds none and hands
  // nothing back.
  Cache(const Cache&) = default;
  Cache& operator=(const Cache&) = default;
  Cache(Cache&&) = default;
  Cache& operator=(Cache&&) = default;

  // Tag check without side effects (no LRU update). Used both internally and
  // to model the paper's §4.1 "is this line cached?" hardware probe.
  bool Contains(uint64_t line_addr) const { return FindWay(SetOf(line_addr), line_addr) >= 0; }

  // Tag check; a hit becomes the most recently used line. No fill on miss.
  bool Lookup(uint64_t line_addr);

  // Installs a line, evicting the LRU way if the set is full. Returns true if
  // an eviction occurred (evicted line in *evicted when non-null). A line
  // already present only becomes the most recently used; a new line takes an
  // invalid way if the set has one, else the LRU way.
  bool Install(uint64_t line_addr, uint64_t* evicted = nullptr);

  // Removes a line if present; returns whether it was present.
  bool Invalidate(uint64_t line_addr);

  // Invalidates every way and zeroes the stats.
  void Reset();
  static constexpr uint64_t kTrackedSetsDivisor = 4;

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t installs = 0;
    uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  const CacheLevelConfig& config() const { return config_; }

 private:
  static constexpr uint64_t kInvalidTag = ~0ull;

  // First word of the line's set: its `ways_` tags, most recent first.
  uint64_t* SetOf(uint64_t line_addr) { return &slots_[(line_addr & set_mask_) * ways_]; }
  const uint64_t* SetOf(uint64_t line_addr) const {
    return &slots_[(line_addr & set_mask_) * ways_];
  }
  // Lists `set` for the next Reset (Install found it empty).
  void NoteFilled(uint64_t set);
  // Way index holding `line_addr` in `set`, or -1. Invalid ways are only at
  // the tail, so the scan stops at the first one.
  int FindWay(const uint64_t* set, uint64_t line_addr) const {
    for (uint32_t w = 0; w < ways_ && set[w] != kInvalidTag; ++w) {
      if (set[w] == line_addr) {
        return static_cast<int>(w);
      }
    }
    return -1;
  }

  CacheLevelConfig config_;
  uint32_t ways_;
  uint64_t set_mask_;
  std::vector<uint64_t> slots_;  // num_sets * ways, blocked by set
  Stats stats_;
  // Sets an Install turned from empty to non-empty since the last Reset;
  // holding more than tracked_limit_ entries means "refill everything".
  // Kept after the fields a lookup touches.
  std::vector<uint32_t> touched_;
  size_t tracked_limit_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_CACHE_H_
