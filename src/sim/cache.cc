#include "src/sim/cache.h"

#include <algorithm>
#include <cassert>

namespace yieldhide::sim {

namespace {
[[maybe_unused]] bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Cache::Cache(const CacheLevelConfig& config) : config_(config), ways_(config.ways) {
  const uint64_t num_sets = config.num_sets();
  assert(num_sets > 0 && IsPowerOfTwo(num_sets) &&
         "cache size must be a power-of-two multiple of line*ways");
  set_mask_ = num_sets - 1;
  tracked_limit_ = num_sets / kTrackedSetsDivisor;
  // Stamps of invalid ways are never read, so one fill covers both halves.
  slots_.assign(num_sets * 2 * ways_, kInvalidTag);
}

bool Cache::Lookup(uint64_t line_addr) {
  ++stats_.lookups;
  uint64_t* set = SetOf(line_addr);
  const int way = FindWay(set, line_addr);
  if (way < 0) {
    return false;
  }
  set[ways_ + way] = ++lru_clock_;
  ++stats_.hits;
  return true;
}

bool Cache::Install(uint64_t line_addr, uint64_t* evicted) {
  assert(line_addr != kInvalidTag);
  ++stats_.installs;
  uint64_t* tags = SetOf(line_addr);
  uint64_t* stamps = tags + ways_;
  uint32_t invalid = ways_;  // first invalid way, if any
  uint32_t lru = ways_;      // valid way with the smallest stamp
  for (uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == line_addr) {
      stamps[w] = ++lru_clock_;  // refresh, already present
      return false;
    }
    if (tags[w] == kInvalidTag) {
      if (invalid == ways_) {
        invalid = w;
      }
    } else if (lru == ways_ || stamps[w] < stamps[lru]) {
      lru = w;
    }
  }
  const bool evicting = invalid == ways_;
  const uint32_t victim = evicting ? lru : invalid;
  if (evicting) {
    ++stats_.evictions;
    if (evicted != nullptr) {
      *evicted = tags[victim];
    }
  } else if (lru == ways_) [[unlikely]] {
    NoteFilled(line_addr & set_mask_);  // the set was empty
  }
  tags[victim] = line_addr;
  stamps[victim] = ++lru_clock_;
  return evicting;
}

void Cache::NoteFilled(uint64_t set) {
  if (touched_.size() <= tracked_limit_) {
    touched_.push_back(static_cast<uint32_t>(set));
  }
}

bool Cache::Invalidate(uint64_t line_addr) {
  uint64_t* set = SetOf(line_addr);
  const int way = FindWay(set, line_addr);
  if (way < 0) {
    return false;
  }
  set[way] = kInvalidTag;
  return true;
}

void Cache::Reset() {
  if (touched_.size() > tracked_limit_) {
    std::fill(slots_.begin(), slots_.end(), kInvalidTag);
  } else {
    for (uint32_t set : touched_) {
      std::fill_n(&slots_[static_cast<uint64_t>(set) * 2 * ways_], 2 * ways_, kInvalidTag);
    }
  }
  touched_.clear();
  lru_clock_ = 0;
  stats_ = Stats{};
}

}  // namespace yieldhide::sim
