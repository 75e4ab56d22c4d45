// Differential tests: sim::Cache and sim::SparseMemory against simple
// reference models, driven by seeded random operation streams.
//
// ReferenceCache is the original array-of-structs true-LRU cache (one Way
// record per way with a `valid` flag). ReferenceMemory keeps every page in a
// std::unordered_map. Every return value, every evicted line, the stats, and
// the resident page count must match after every operation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/memory.h"

namespace yieldhide::sim {
namespace {

// --- Reference models ------------------------------------------------------------

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheLevelConfig& config)
      : config_(config), set_mask_(config.num_sets() - 1) {
    ways_.resize(config.num_sets() * config.ways);
  }

  bool Contains(uint64_t line_addr) const { return FindWay(line_addr) != nullptr; }

  bool Lookup(uint64_t line_addr) {
    ++stats_.lookups;
    Way* way = FindWay(line_addr);
    if (way == nullptr) {
      return false;
    }
    way->lru_stamp = ++lru_clock_;
    ++stats_.hits;
    return true;
  }

  bool Install(uint64_t line_addr, uint64_t* evicted) {
    ++stats_.installs;
    Way* base = &ways_[(line_addr & set_mask_) * config_.ways];
    Way* victim = nullptr;
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].line_addr == line_addr) {
        base[w].lru_stamp = ++lru_clock_;
        return false;
      }
      if (!base[w].valid) {
        if (victim == nullptr || victim->valid) {
          victim = &base[w];
        }
      } else if (victim == nullptr ||
                 (victim->valid && base[w].lru_stamp < victim->lru_stamp)) {
        victim = &base[w];
      }
    }
    const bool evicting = victim->valid;
    if (evicting) {
      ++stats_.evictions;
      if (evicted != nullptr) {
        *evicted = victim->line_addr;
      }
    }
    victim->valid = true;
    victim->line_addr = line_addr;
    victim->lru_stamp = ++lru_clock_;
    return evicting;
  }

  bool Invalidate(uint64_t line_addr) {
    Way* way = FindWay(line_addr);
    if (way == nullptr) {
      return false;
    }
    way->valid = false;
    return true;
  }

  void Reset() {
    for (Way& way : ways_) {
      way = Way{};
    }
    lru_clock_ = 0;
    stats_ = Cache::Stats{};
  }

  const Cache::Stats& stats() const { return stats_; }

 private:
  struct Way {
    uint64_t line_addr = 0;
    bool valid = false;
    uint64_t lru_stamp = 0;
  };

  Way* FindWay(uint64_t line_addr) {
    return const_cast<Way*>(std::as_const(*this).FindWay(line_addr));
  }
  const Way* FindWay(uint64_t line_addr) const {
    const Way* base = &ways_[(line_addr & set_mask_) * config_.ways];
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].line_addr == line_addr) {
        return &base[w];
      }
    }
    return nullptr;
  }

  CacheLevelConfig config_;
  uint64_t set_mask_;
  uint64_t lru_clock_ = 0;
  std::vector<Way> ways_;
  Cache::Stats stats_;
};

class ReferenceMemory {
 public:
  uint8_t ReadByte(uint64_t addr) const {
    auto it = pages_.find(addr >> SparseMemory::kPageBits);
    return it == pages_.end() ? 0 : it->second[addr & (SparseMemory::kPageSize - 1)];
  }
  void WriteByte(uint64_t addr, uint8_t value) {
    pages_[addr >> SparseMemory::kPageBits][addr & (SparseMemory::kPageSize - 1)] = value;
  }
  uint64_t Read64(uint64_t addr) const {
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(ReadByte(addr + i)) << (8 * i);
    }
    return value;
  }
  void Write64(uint64_t addr, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      WriteByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  size_t resident_pages() const { return pages_.size(); }
  void Clear() { pages_.clear(); }

 private:
  std::unordered_map<uint64_t, std::array<uint8_t, SparseMemory::kPageSize>> pages_;
};

// --- Cache -----------------------------------------------------------------------

void ExpectSameStats(const Cache::Stats& a, const Cache::Stats& b, uint64_t step) {
  EXPECT_EQ(a.lookups, b.lookups) << "step " << step;
  EXPECT_EQ(a.hits, b.hits) << "step " << step;
  EXPECT_EQ(a.installs, b.installs) << "step " << step;
  EXPECT_EQ(a.evictions, b.evictions) << "step " << step;
}

// Drives both caches with `steps` random operations. Most line addresses fall
// in a handful of sets, so sets fill, evict and refresh constantly; the rest
// are spread over a wide range.
void RunCacheDifferential(const CacheLevelConfig& config, uint64_t seed, uint64_t steps) {
  SCOPED_TRACE(config.name + " ways=" + std::to_string(config.ways) +
               " seed=" + std::to_string(seed));
  Cache cache(config);
  ReferenceCache reference(config);
  std::mt19937_64 rng(seed);
  const uint64_t sets = config.num_sets();
  auto next_line = [&]() -> uint64_t {
    if (rng() % 5 == 0) {
      return rng() >> 6;  // any line address of a 64-bit byte address
    }
    const uint64_t set = rng() % (sets < 4 ? sets : 4);
    return set + sets * (rng() % (3 * config.ways + 1));
  };

  for (uint64_t step = 0; step < steps; ++step) {
    const uint64_t line = next_line();
    const uint64_t op = rng() % 100;
    if (op < 30) {
      ASSERT_EQ(cache.Contains(line), reference.Contains(line)) << "step " << step;
    } else if (op < 60) {
      ASSERT_EQ(cache.Lookup(line), reference.Lookup(line)) << "step " << step;
    } else if (op < 90) {
      uint64_t evicted = 0x5eed;
      uint64_t ref_evicted = 0x5eed;
      const bool use_out = (op & 1) == 0;
      ASSERT_EQ(cache.Install(line, use_out ? &evicted : nullptr),
                reference.Install(line, use_out ? &ref_evicted : nullptr))
          << "step " << step;
      ASSERT_EQ(evicted, ref_evicted) << "step " << step;
    } else if (op < 99) {
      ASSERT_EQ(cache.Invalidate(line), reference.Invalidate(line)) << "step " << step;
    } else if (rng() % 8 == 0) {
      cache.Reset();
      reference.Reset();
    }
    ExpectSameStats(cache.stats(), reference.stats(), step);
  }
}

CacheLevelConfig Geometry(uint32_t ways, uint64_t sets) {
  return {"W" + std::to_string(ways), sets * 64 * ways, 64, ways, 4};
}

TEST(CacheDifferentialTest, WayCounts) {
  for (uint32_t ways : {1u, 2u, 4u, 16u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      RunCacheDifferential(Geometry(ways, 16), seed, 20'000);
    }
  }
}

TEST(CacheDifferentialTest, SingleSet) {
  RunCacheDifferential(Geometry(8, 1), 7, 20'000);
}

TEST(CacheDifferentialTest, SmallTestLevels) {
  const HierarchyConfig config = MachineConfig::SmallTest().hierarchy;
  for (const CacheLevelConfig& level : {config.l1, config.l2, config.l3}) {
    RunCacheDifferential(level, 11, 20'000);
  }
}

TEST(CacheDifferentialTest, SkylakeLikeLevels) {
  const HierarchyConfig config = MachineConfig::SkylakeLike().hierarchy;
  for (const CacheLevelConfig& level : {config.l1, config.l2, config.l3}) {
    RunCacheDifferential(level, 13, 20'000);
  }
}

TEST(CacheDifferentialTest, InvalidatedWayIsFilledBeforeTheLruWay) {
  // 1 set x 4 ways: an invalidated middle way takes the next install even
  // though another way is less recently used.
  Cache cache(Geometry(4, 1));
  for (uint64_t line : {10u, 11u, 12u, 13u}) {
    cache.Install(line);
  }
  EXPECT_TRUE(cache.Invalidate(12));
  uint64_t evicted = 0;
  EXPECT_FALSE(cache.Install(14, &evicted));
  EXPECT_TRUE(cache.Install(15, &evicted));
  EXPECT_EQ(evicted, 10u);
  for (uint64_t line = 10; line <= 15; ++line) {
    EXPECT_EQ(cache.Contains(line), line != 10 && line != 12) << line;
  }
}

// --- SparseMemory ----------------------------------------------------------------

// Address regions a workload image, the flat-directory boundary, the
// overflow range and the top of the address space each exercise.
uint64_t NextAddress(std::mt19937_64& rng) {
  constexpr uint64_t kLimit = SparseMemory::kFlatLimit;
  const uint64_t page_offset = rng() % 8 == 0
                                   ? SparseMemory::kPageSize - 1 - rng() % 8  // straddles
                                   : rng() % SparseMemory::kPageSize;
  const uint64_t page = rng() % 24;
  switch (rng() % 7) {
    case 0:
      return page * SparseMemory::kPageSize + page_offset;
    case 1:
      return 0x100000 + (rng() % (1u << 21)) * 8 + (rng() % 3 == 0 ? rng() % 8 : 0);
    case 2:  // straddles the flat-directory limit
      return kLimit - 12 * SparseMemory::kPageSize + page * SparseMemory::kPageSize +
             page_offset;
    case 3:
      return kLimit + (rng() % (1ull << 40)) * 8;
    case 4:  // the last pages of the address space; Write64 may wrap to 0
      return ~0ull - page * SparseMemory::kPageSize - page_offset;
    case 5:  // overflow pages that differ only in a high address bit
      return kLimit + page * SparseMemory::kPageSize + page_offset +
             (rng() % 2 == 0 ? 0 : 1ull << (40 + rng() % 23));
    default:
      return rng();
  }
}

void RunMemoryDifferential(uint64_t seed, uint64_t steps) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  SparseMemory memory;
  ReferenceMemory reference;
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> written;
  for (uint64_t step = 0; step < steps; ++step) {
    // Half the reads revisit an earlier write, so they read real data.
    uint64_t addr = NextAddress(rng);
    if (!written.empty() && rng() % 2 == 0) {
      addr = written[rng() % written.size()] + rng() % 3;
    }
    const uint64_t op = rng() % 100;
    if (op < 35) {
      const uint64_t value = rng();
      memory.Write64(addr, value);
      reference.Write64(addr, value);
      written.push_back(addr);
    } else if (op < 45) {
      const uint8_t value = static_cast<uint8_t>(rng());
      memory.WriteByte(addr, value);
      reference.WriteByte(addr, value);
      written.push_back(addr);
    } else if (op < 80) {
      ASSERT_EQ(memory.Read64(addr), reference.Read64(addr))
          << "step " << step << " addr " << addr;
    } else if (op < 90) {
      ASSERT_EQ(memory.ReadByte(addr), reference.ReadByte(addr))
          << "step " << step << " addr " << addr;
    } else if (op < 99) {
      memory.HostPrefetch(addr);  // a pure host hint: no visible effect
    } else if (rng() % 4 == 0) {
      memory.Clear();
      reference.Clear();
      written.clear();
    }
    ASSERT_EQ(memory.resident_pages(), reference.resident_pages()) << "step " << step;
    ASSERT_EQ(memory.resident_bytes(), reference.resident_pages() * SparseMemory::kPageSize);
  }
  for (uint64_t addr : written) {
    ASSERT_EQ(memory.Read64(addr), reference.Read64(addr)) << addr;
  }
}

TEST(SparseMemoryDifferentialTest, RandomStreams) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunMemoryDifferential(seed, 20'000);
  }
}

TEST(SparseMemoryDifferentialTest, StraddlesTheFlatLimit) {
  // One Write64 whose bytes land on both sides of the flat-directory limit:
  // the low half in a directory page, the high half in an overflow page.
  SparseMemory memory;
  const uint64_t addr = SparseMemory::kFlatLimit - 4;
  memory.Write64(addr, 0x1122334455667788ull);
  EXPECT_EQ(memory.Read64(addr), 0x1122334455667788ull);
  EXPECT_EQ(memory.ReadByte(SparseMemory::kFlatLimit - 1), 0x55);
  EXPECT_EQ(memory.ReadByte(SparseMemory::kFlatLimit), 0x44);
  EXPECT_EQ(memory.resident_pages(), 2u);
  memory.Clear();
  EXPECT_EQ(memory.Read64(addr), 0u);
  EXPECT_EQ(memory.resident_pages(), 0u);
}

TEST(SparseMemoryDifferentialTest, HostPrefetchNeverAllocates) {
  SparseMemory memory;
  for (uint64_t addr : std::initializer_list<uint64_t>{
           0, 0x100000, SparseMemory::kFlatLimit - 1, SparseMemory::kFlatLimit, ~0ull}) {
    memory.HostPrefetch(addr);
    EXPECT_EQ(memory.Read64(addr & ~7ull), 0u);
  }
  EXPECT_EQ(memory.resident_pages(), 0u);
  memory.Write64(0x100000, 42);
  memory.HostPrefetch(0x100000);
  EXPECT_EQ(memory.Read64(0x100000), 42u);
  EXPECT_EQ(memory.resident_pages(), 1u);
}

}  // namespace
}  // namespace yieldhide::sim
