#include "src/sim/cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>

namespace yieldhide::sim {

namespace {
[[maybe_unused]] bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Shifts the tags in slots [0, way) down one slot and writes `line_addr` to
// slot 0, the most recently used; the tag in slot `way` is overwritten.
void MoveToFront(uint64_t* set, uint32_t way, uint64_t line_addr) {
  std::memmove(set + 1, set, way * sizeof(uint64_t));
  set[0] = line_addr;
}

// Bound on the bytes of released arrays kept for reuse: about 28 SkylakeLike
// machines.
constexpr size_t kMaxPooledBytes = size_t{32} << 20;

// Released tag arrays, every word kInvalidTag, waiting for a Cache of the
// same word count.
class ArrayPool {
 public:
  static ArrayPool& Get() {
    static ArrayPool* const pool = new ArrayPool;  // never destroyed
    return *pool;
  }

  // The most recently listed array of exactly `words` words, or an empty one.
  std::vector<uint64_t> Take(size_t words) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = arrays_.size(); i-- > 0;) {
      if (arrays_[i].size() == words) {
        std::swap(arrays_[i], arrays_.back());
        std::vector<uint64_t> array = std::move(arrays_.back());
        arrays_.pop_back();
        bytes_ -= words * sizeof(uint64_t);
        return array;
      }
    }
    return {};
  }

  // Lists `array`, or frees it (after the lock is released) if listing it
  // would cross kMaxPooledBytes or there is no memory for the list
  // entry. Called from ~Cache, so it must not throw.
  void Give(std::vector<uint64_t> array) noexcept {
    const size_t bytes = array.size() * sizeof(uint64_t);
    std::lock_guard<std::mutex> lock(mu_);
    if (bytes_ + bytes > kMaxPooledBytes) {
      return;
    }
    try {
      arrays_.push_back(std::move(array));
    } catch (const std::bad_alloc&) {
      return;  // push_back left `array` intact; it is freed like one past the bound
    }
    bytes_ += bytes;
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<uint64_t>> arrays_;
  size_t bytes_ = 0;
};
}  // namespace

Cache::Cache(const CacheLevelConfig& config) : config_(config), ways_(config.ways) {
  const uint64_t num_sets = config.num_sets();
  assert(num_sets > 0 && IsPowerOfTwo(num_sets) &&
         "cache size must be a power-of-two multiple of line*ways");
  set_mask_ = num_sets - 1;
  tracked_limit_ = num_sets / kTrackedSetsDivisor;
  const size_t words = num_sets * ways_;
  slots_ = ArrayPool::Get().Take(words);
  if (slots_.empty()) {
    slots_.assign(words, kInvalidTag);
  } else {
    assert(std::all_of(slots_.begin(), slots_.end(),
                       [](uint64_t word) { return word == kInvalidTag; }) &&
           "a recycled tag array must come back fully invalidated");
  }
}

Cache::~Cache() {
  if (slots_.empty()) {
    return;  // moved from
  }
  Reset();
  ArrayPool::Get().Give(std::move(slots_));
}

bool Cache::Lookup(uint64_t line_addr) {
  ++stats_.lookups;
  uint64_t* set = SetOf(line_addr);
  const int way = FindWay(set, line_addr);
  if (way < 0) {
    return false;
  }
  MoveToFront(set, static_cast<uint32_t>(way), line_addr);
  ++stats_.hits;
  return true;
}

bool Cache::Install(uint64_t line_addr, uint64_t* evicted) {
  assert(line_addr != kInvalidTag);
  ++stats_.installs;
  uint64_t* set = SetOf(line_addr);
  const int way = FindWay(set, line_addr);
  if (way >= 0) {
    MoveToFront(set, static_cast<uint32_t>(way), line_addr);  // refresh, already present
    return false;
  }
  // The last slot is the LRU line if the set is full; an invalid last slot
  // means a free way, which the shift fills without evicting anything.
  const uint64_t last = set[ways_ - 1];
  const bool evicting = last != kInvalidTag;
  if (evicting) {
    ++stats_.evictions;
    if (evicted != nullptr) {
      *evicted = last;
    }
  } else if (set[0] == kInvalidTag) [[unlikely]] {
    NoteFilled(line_addr & set_mask_);  // the set was empty
  }
  MoveToFront(set, ways_ - 1, line_addr);
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
  // Close the hole so that invalid ways stay at the tail.
  std::memmove(set + way, set + way + 1, (ways_ - 1 - way) * sizeof(uint64_t));
  set[ways_ - 1] = kInvalidTag;
  return true;
}

void Cache::Reset() {
  if (touched_.size() > tracked_limit_) {
    std::fill(slots_.begin(), slots_.end(), kInvalidTag);
  } else {
    for (uint32_t set : touched_) {
      std::fill_n(&slots_[static_cast<uint64_t>(set) * ways_], ways_, kInvalidTag);
    }
  }
  touched_.clear();
  stats_ = Stats{};
}

}  // namespace yieldhide::sim
