// A single set-associative cache level with true-LRU replacement.
// Addresses handled here are line addresses (byte address >> line bits).
//
// Layout: one flat array of uint64_t, blocked by set. Set s occupies
// 2 * ways consecutive words: its `ways` tags, then its `ways` LRU stamps,
// so a tag check touches one or two host cache lines and the victim scan
// stays in the same block. An invalid way holds the sentinel tag
// kInvalidTag, which no line address can equal: a line address is a byte
// address shifted right by the line bits, so its top bits are zero.
#ifndef YIELDHIDE_SRC_SIM_CACHE_H_
#define YIELDHIDE_SRC_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/sim/config.h"

namespace yieldhide::sim {

class Cache {
 public:
  explicit Cache(const CacheLevelConfig& config);

  // Tag check without side effects (no LRU update). Used both internally and
  // to model the paper's §4.1 "is this line cached?" hardware probe.
  bool Contains(uint64_t line_addr) const { return FindWay(SetOf(line_addr), line_addr) >= 0; }

  // Tag check with LRU update on hit. Does not fill on miss.
  bool Lookup(uint64_t line_addr);

  // Installs a line, evicting the LRU way if the set is full. Returns true if
  // an eviction occurred (evicted line in *evicted when non-null). A line
  // already present only has its LRU stamp refreshed; otherwise the first
  // invalid way is filled, else the way with the smallest stamp.
  bool Install(uint64_t line_addr, uint64_t* evicted = nullptr);

  // Removes a line if present; returns whether it was present.
  bool Invalidate(uint64_t line_addr);

  void Reset();

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

  // First word of the line's set: `ways_` tags followed by `ways_` stamps.
  uint64_t* SetOf(uint64_t line_addr) { return &slots_[(line_addr & set_mask_) * 2 * ways_]; }
  const uint64_t* SetOf(uint64_t line_addr) const {
    return &slots_[(line_addr & set_mask_) * 2 * ways_];
  }
  // Way index holding `line_addr` in `set`, or -1.
  int FindWay(const uint64_t* set, uint64_t line_addr) const {
    for (uint32_t w = 0; w < ways_; ++w) {
      if (set[w] == line_addr) {
        return static_cast<int>(w);
      }
    }
    return -1;
  }

  CacheLevelConfig config_;
  uint32_t ways_;
  uint64_t set_mask_;
  uint64_t lru_clock_ = 0;
  std::vector<uint64_t> slots_;  // num_sets * 2 * ways, blocked by set
  Stats stats_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_CACHE_H_
