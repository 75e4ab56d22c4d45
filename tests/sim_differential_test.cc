// Differential tests: sim::Cache and sim::SparseMemory against simple
// reference models, driven by seeded random operation streams.
//
// ReferenceCache is the original array-of-structs true-LRU cache (one Way
// record per way with a `valid` flag and an LRU stamp), an oracle independent
// of sim::Cache's recency-ordered sets. ReferenceMemory keeps every page in a
// std::unordered_map. Every return value, every evicted line, the stats, and
// the resident page count must match after every operation. Copies of a
// SparseMemory share pages copy-on-write; their reference is a copy of the
// reference model by value, so any write that leaks between copies shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
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
      : config_(config), set_mask_(config.num_sets() - 1), invalidated_at_rank_(config.ways) {
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
    // The way's recency rank in its set (0 = most recently used): where
    // sim::Cache's set gets its hole.
    const Way* base = &ways_[(line_addr & set_mask_) * config_.ways];
    size_t rank = 0;
    for (uint32_t w = 0; w < config_.ways; ++w) {
      rank += base[w].valid && base[w].lru_stamp > way->lru_stamp;
    }
    ++invalidated_at_rank_[rank];
    way->valid = false;
    return true;
  }

  // Invalidates that hit a present line, by the line's recency rank.
  const std::vector<uint64_t>& invalidated_at_rank() const { return invalidated_at_rank_; }

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
  std::vector<uint64_t> invalidated_at_rank_;
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
  const auto& pages() const { return pages_; }

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

// Percent of operations that are a Contains, a Lookup and an Install; the
// rest but 1% are Invalidates, and that 1% resets both caches one time in 8.
// Hot-set lines take one of `tags` tags (0: 3 * ways + 1).
struct OpMix {
  uint64_t contains = 30;
  uint64_t lookups = 30;
  uint64_t installs = 30;
  uint64_t tags = 0;
};

// Drives both caches with `steps` random operations. Most line addresses fall
// in the first `hot_sets` sets, so sets fill, evict and refresh constantly;
// the rest are spread over a wide range.
void DriveCaches(Cache& cache, ReferenceCache& reference, const CacheLevelConfig& config,
                 std::mt19937_64& rng, uint64_t hot_sets, uint64_t steps, OpMix mix = {}) {
  const uint64_t sets = config.num_sets();
  const uint64_t tags = mix.tags != 0 ? mix.tags : 3 * config.ways + 1;
  auto next_line = [&]() -> uint64_t {
    if (rng() % 5 == 0) {
      return rng() >> 6;  // any line address of a 64-bit byte address
    }
    const uint64_t set = rng() % hot_sets;
    return set + sets * (rng() % tags);
  };

  for (uint64_t step = 0; step < steps; ++step) {
    const uint64_t line = next_line();
    const uint64_t op = rng() % 100;
    if (op < mix.contains) {
      ASSERT_EQ(cache.Contains(line), reference.Contains(line)) << "step " << step;
    } else if (op < mix.contains + mix.lookups) {
      ASSERT_EQ(cache.Lookup(line), reference.Lookup(line)) << "step " << step;
    } else if (op < mix.contains + mix.lookups + mix.installs) {
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

void RunCacheDifferential(const CacheLevelConfig& config, uint64_t seed, uint64_t steps) {
  SCOPED_TRACE(config.name + " ways=" + std::to_string(config.ways) +
               " seed=" + std::to_string(seed));
  Cache cache(config);
  ReferenceCache reference(config);
  std::mt19937_64 rng(seed);
  DriveCaches(cache, reference, config, rng, std::min<uint64_t>(config.num_sets(), 4), steps);
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

TEST(CacheDifferentialTest, InvalidateChurnLeavesHolesAtEverySlot) {
  // One 16-way set, a third of the operations Invalidates, and tags drawn
  // from barely more lines than the set holds, so most Invalidates hit. A
  // hit line's recency rank is the slot sim::Cache removes it from, so every
  // rank must have been hit, the last slot and the first included.
  const CacheLevelConfig config = Geometry(16, 1);
  Cache cache(config);
  ReferenceCache reference(config);
  std::mt19937_64 rng(47);
  DriveCaches(cache, reference, config, rng, 1, 40'000,
              {.contains = 15, .lookups = 20, .installs = 32, .tags = 20});
  for (uint32_t rank = 0; rank < config.ways; ++rank) {
    EXPECT_GT(reference.invalidated_at_rank()[rank], 0u) << "no hole at slot " << rank;
  }
}

TEST(CacheDifferentialTest, HoleAtTheMostRecentSlotIsFilledWithoutEviction) {
  // 1 set x 4 ways, full: 13 is the most recently used line, 10 the least.
  Cache cache(Geometry(4, 1));
  for (uint64_t line : {10u, 11u, 12u, 13u}) {
    cache.Install(line);
  }
  EXPECT_TRUE(cache.Invalidate(13));
  uint64_t evicted = 0;
  EXPECT_FALSE(cache.Install(14, &evicted));  // takes the hole
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.Install(15, &evicted));
  EXPECT_EQ(evicted, 10u);  // the least recent line is still the victim
  EXPECT_TRUE(cache.Install(16, &evicted));
  EXPECT_EQ(evicted, 11u);
  for (uint64_t line = 10; line <= 16; ++line) {
    EXPECT_EQ(cache.Contains(line), line >= 12 && line != 13) << line;
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

// Installs lines into the first `touched` sets, then empties and refills the
// first `refilled` of them with Invalidate, so those sets turn from empty to
// non-empty twice. Returns every line installed.
std::vector<uint64_t> FillSets(Cache& cache, ReferenceCache& reference,
                               const CacheLevelConfig& config, uint64_t touched,
                               uint64_t refilled, std::mt19937_64& rng) {
  const uint64_t sets = config.num_sets();
  std::vector<uint64_t> installed;
  for (uint64_t set = 0; set < touched; ++set) {
    const uint64_t lines = 1 + rng() % (config.ways + 2);  // some sets evict
    for (uint64_t i = 0; i < lines; ++i) {
      const uint64_t line = set + sets * (rng() % 64);
      cache.Install(line);
      reference.Install(line, nullptr);
      installed.push_back(line);
    }
  }
  for (uint64_t set = 0; set < refilled; ++set) {
    for (uint64_t tag = 0; tag < 64; ++tag) {
      EXPECT_EQ(cache.Invalidate(set + sets * tag), reference.Invalidate(set + sets * tag));
    }
    const uint64_t line = set + sets * 99;
    cache.Install(line);
    reference.Install(line, nullptr);
    installed.push_back(line);
  }
  EXPECT_EQ(cache.stats().installs, reference.stats().installs);
  return installed;
}

// Fills sets as FillSets does; after Reset no old line may remain, and the
// cache must track the reference (itself reset by a full sweep) op for op.
void RunResetDifferential(const CacheLevelConfig& config, uint64_t touched,
                          uint64_t refilled, uint64_t seed) {
  SCOPED_TRACE(config.name + " sets=" + std::to_string(config.num_sets()) +
               " touched=" + std::to_string(touched) +
               " refilled=" + std::to_string(refilled));
  Cache cache(config);
  ReferenceCache reference(config);
  std::mt19937_64 rng(seed);
  const std::vector<uint64_t> installed =
      FillSets(cache, reference, config, touched, refilled, rng);

  cache.Reset();
  reference.Reset();
  ExpectSameStats(cache.stats(), Cache::Stats{}, 0);
  for (uint64_t line : installed) {
    ASSERT_FALSE(cache.Contains(line)) << line;
  }
  const uint64_t hot = std::max<uint64_t>(1, std::min(touched, config.num_sets()));
  DriveCaches(cache, reference, config, rng, hot, 20'000);
}

TEST(CacheDifferentialTest, ResetBelowAndAboveTheTrackedSetLimit) {
  const HierarchyConfig skylake = MachineConfig::SkylakeLike().hierarchy;
  for (const CacheLevelConfig& config : {Geometry(4, 64), Geometry(1, 16), skylake.l2}) {
    const uint64_t sets = config.num_sets();
    const uint64_t limit = sets / Cache::kTrackedSetsDivisor;
    for (uint64_t touched : {uint64_t{0}, uint64_t{1}, limit - 1, limit, limit + 1, sets}) {
      RunResetDifferential(config, touched, 0, 17 + touched);
    }
    // A refilled set is listed twice: limit - 2 sets and two refills stay at
    // the limit, three refills cross it.
    RunResetDifferential(config, limit - 2, 2, 19);
    RunResetDifferential(config, limit - 2, 3, 23);
    RunResetDifferential(config, sets, sets, 29);
  }
}

TEST(CacheDifferentialTest, RepeatedResetsOfOneCache) {
  // Runs of growing footprint on one cache: every Reset takes whichever path
  // the last run's footprint calls for, and the next run must not notice.
  const CacheLevelConfig config = Geometry(4, 256);
  Cache cache(config);
  ReferenceCache reference(config);
  std::mt19937_64 rng(31);
  for (uint64_t hot : {1u, 8u, 64u, 65u, 200u, 3u, 256u, 2u}) {
    SCOPED_TRACE("hot sets " + std::to_string(hot));
    DriveCaches(cache, reference, config, rng, hot, 4'000);
    cache.Reset();
    reference.Reset();
    for (uint64_t line = 0; line < 256 * 13; ++line) {  // every hot-set tag
      ASSERT_FALSE(cache.Contains(line)) << line;
    }
  }
}

// A destroyed cache hands its array to the next cache of the same word count.
// Drives a cache of a geometry no other test uses (6 ways x 128 sets, 1536
// words) through random streams, then fills `touched` sets and empties and
// refills `refilled` of them, and destroys it. A smaller decoy built before
// it and destroyed after it sits on top of the free list. The successor must
// start empty and track a fresh reference op for op.
void RunSuccessorDifferential(uint64_t touched, uint64_t refilled, uint64_t seed) {
  const CacheLevelConfig config = Geometry(6, 128);
  SCOPED_TRACE("touched=" + std::to_string(touched) + " refilled=" + std::to_string(refilled));
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> installed;
  {
    Cache decoy(Geometry(2, 8));
    Cache cache(config);
    ReferenceCache reference(config);
    DriveCaches(cache, reference, config, rng, 8, 20'000);
    // Empty the tracked-set list, so the fill alone decides which of
    // Reset's paths the destructor takes.
    cache.Reset();
    reference.Reset();
    installed = FillSets(cache, reference, config, touched, refilled, rng);
  }

  Cache successor(config);
  ReferenceCache fresh(config);
  ExpectSameStats(successor.stats(), Cache::Stats{}, 0);
  for (uint64_t line : installed) {
    ASSERT_FALSE(successor.Contains(line)) << line;
  }
  DriveCaches(successor, fresh, config, rng, config.num_sets(), 20'000);
}

TEST(CacheDifferentialTest, SuccessorOfADestroyedCacheIsFresh) {
  const uint64_t sets = Geometry(6, 128).num_sets();
  const uint64_t limit = sets / Cache::kTrackedSetsDivisor;
  RunSuccessorDifferential(limit - 2, 2, 37);  // at the limit: touched sets only
  RunSuccessorDifferential(sets, 16, 41);      // past it: the whole array
  RunSuccessorDifferential(0, 0, 43);          // nothing to reset
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

// HostBytes points at the byte the reads see when its page is resident below
// the flat limit, and is null everywhere else.
void ExpectHostBytes(const SparseMemory& memory, const ReferenceMemory& reference,
                     uint64_t addr) {
  const uint8_t* bytes = memory.HostBytes(addr);
  const bool resident = reference.pages().count(addr >> SparseMemory::kPageBits) != 0;
  ASSERT_EQ(bytes != nullptr, addr < SparseMemory::kFlatLimit && resident) << addr;
  if (bytes != nullptr) {
    ASSERT_EQ(*bytes, reference.ReadByte(addr)) << addr;
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
      ExpectHostBytes(memory, reference, addr);
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

// The eight bytes at HostBytes(addr), which must not be null.
uint64_t HostRead64(const SparseMemory& memory, uint64_t addr) {
  const uint8_t* bytes = memory.HostBytes(addr);
  EXPECT_NE(bytes, nullptr) << addr;
  uint64_t value = 0;
  if (bytes != nullptr) {
    std::memcpy(&value, bytes, sizeof(value));
  }
  return value;
}

TEST(SparseMemoryDifferentialTest, HostBytesFindsResidentFlatBytesOnly) {
  constexpr uint64_t kLeafSize = SparseMemory::kPageSize << SparseMemory::kLeafBits;
  constexpr uint64_t kLimit = SparseMemory::kFlatLimit;
  SparseMemory memory;
  for (uint64_t addr : std::initializer_list<uint64_t>{0, 0x100000, kLimit - 1, kLimit, ~0ull}) {
    EXPECT_EQ(memory.HostBytes(addr), nullptr) << addr;
  }
  EXPECT_EQ(memory.resident_pages(), 0u);

  memory.Write64(0x100000, 42);
  EXPECT_EQ(HostRead64(memory, 0x100000), 42u);
  EXPECT_EQ(memory.HostBytes(0x100003), memory.HostBytes(0x100000) + 3);
  EXPECT_EQ(memory.HostBytes(0x100000 + SparseMemory::kPageSize), nullptr);  // unwritten page
  EXPECT_EQ(memory.HostBytes(kLeafSize), nullptr);  // past the directory end
  EXPECT_EQ(memory.HostBytes(kLimit - 8), nullptr);  // far past it
  memory.Write64(3 * kLeafSize + 16, 43);
  EXPECT_EQ(memory.HostBytes(kLeafSize), nullptr);  // a null leaf inside it
  EXPECT_EQ(HostRead64(memory, 3 * kLeafSize + 16), 43u);
  memory.Write64(kLimit - 8, 44);  // the last flat word
  memory.Write64(kLimit, 45);  // overflow map
  memory.Write64(~0ull - 7, 46);
  EXPECT_EQ(HostRead64(memory, kLimit - 8), 44u);
  EXPECT_EQ(memory.HostBytes(kLimit), nullptr);
  EXPECT_EQ(memory.HostBytes(~0ull - 7), nullptr);
  EXPECT_EQ(memory.Read64(kLimit), 45u);

  // Every aligned word of every resident flat page reads the same through
  // HostBytes as through Read64, and no lookup allocates.
  const size_t resident = memory.resident_pages();
  EXPECT_EQ(resident, 5u);
  uint64_t flat_pages = 0;
  memory.ForEachPage([&](uint64_t base, const uint8_t* page) {
    if (base >= kLimit) {
      return;
    }
    ++flat_pages;
    EXPECT_EQ(memory.HostBytes(base), page) << base;
    for (uint64_t offset = 0; offset < SparseMemory::kPageSize; offset += 8) {
      ASSERT_EQ(HostRead64(memory, base + offset), memory.Read64(base + offset)) << base + offset;
    }
  });
  EXPECT_EQ(flat_pages, 3u);
  EXPECT_EQ(memory.resident_pages(), resident);
}

TEST(SparseMemoryDifferentialTest, HostBytesFollowsCopyOnWrite) {
  SparseMemory original;
  for (uint64_t page = 0; page < 4; ++page) {
    original.Write64(page * SparseMemory::kPageSize, page);
  }
  SparseMemory copy(original);
  for (uint64_t page = 0; page < 4; ++page) {
    const uint64_t addr = page * SparseMemory::kPageSize;
    EXPECT_EQ(copy.HostBytes(addr), original.HostBytes(addr)) << page;  // shared
  }
  const uint8_t* shared = original.HostBytes(SparseMemory::kPageSize);
  copy.Write64(SparseMemory::kPageSize, 100);
  EXPECT_NE(copy.HostBytes(SparseMemory::kPageSize), shared);  // the copy's own page
  EXPECT_EQ(original.HostBytes(SparseMemory::kPageSize), shared);
  EXPECT_EQ(HostRead64(copy, SparseMemory::kPageSize), 100u);
  EXPECT_EQ(HostRead64(original, SparseMemory::kPageSize), 1u);
  EXPECT_EQ(copy.HostBytes(2 * SparseMemory::kPageSize),
            original.HostBytes(2 * SparseMemory::kPageSize));  // still shared
  EXPECT_EQ(original.resident_pages(), 4u);
  EXPECT_EQ(copy.resident_pages(), 4u);
}

// --- SparseMemory copies --------------------------------------------------------

// Every resident page of `memory` by page number, checking that each is
// reported once and at a page boundary.
std::map<uint64_t, const uint8_t*> PagesOf(const SparseMemory& memory) {
  std::map<uint64_t, const uint8_t*> pages;
  memory.ForEachPage([&](uint64_t base, const uint8_t* bytes) {
    EXPECT_EQ(base % SparseMemory::kPageSize, 0u) << base;
    EXPECT_TRUE(pages.emplace(base >> SparseMemory::kPageBits, bytes).second) << base;
  });
  return pages;
}

void ExpectSamePages(const SparseMemory& memory, const ReferenceMemory& reference) {
  const std::map<uint64_t, const uint8_t*> pages = PagesOf(memory);
  ASSERT_EQ(pages.size(), reference.pages().size());
  for (const auto& [number, bytes] : reference.pages()) {
    auto it = pages.find(number);
    ASSERT_NE(it, pages.end()) << "page " << number;
    ASSERT_EQ(std::memcmp(it->second, bytes.data(), SparseMemory::kPageSize), 0)
        << "page " << number;
  }
}

// An original and two copies, each checked against its own reference model;
// the references are copied by value wherever the memories are copied.
// Writes, Clear and re-copying land on a random side at every step, and
// reads check all three sides, so a write that reaches a sharer shows.
void RunCopyOnWriteDifferential(uint64_t seed, uint64_t steps) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  std::array<SparseMemory, 3> memories;
  std::array<ReferenceMemory, 3> references;
  std::vector<uint64_t> written;
  auto next_address = [&]() {
    if (!written.empty() && rng() % 2 == 0) {
      return written[rng() % written.size()] + rng() % 3;
    }
    return NextAddress(rng);
  };
  for (int i = 0; i < 3'000; ++i) {
    const uint64_t addr = next_address();
    const uint64_t value = rng();
    memories[0].Write64(addr, value);
    references[0].Write64(addr, value);
    written.push_back(addr);
  }
  memories[1] = memories[0];                       // copy assignment
  memories[2] = SparseMemory(memories[0]);         // copy, then move assignment
  references[1] = references[2] = references[0];

  for (uint64_t step = 0; step < steps; ++step) {
    const size_t side = rng() % 3;
    const uint64_t addr = next_address();
    const uint64_t op = rng() % 1000;
    if (op < 300) {
      const uint64_t value = rng();
      memories[side].Write64(addr, value);
      references[side].Write64(addr, value);
      written.push_back(addr);
    } else if (op < 400) {
      const uint8_t value = static_cast<uint8_t>(rng());
      memories[side].WriteByte(addr, value);
      references[side].WriteByte(addr, value);
      written.push_back(addr);
    } else if (op < 980) {
      for (size_t s = 0; s < 3; ++s) {
        ASSERT_EQ(memories[s].Read64(addr), references[s].Read64(addr))
            << "step " << step << " side " << s << " addr " << addr;
        ASSERT_EQ(memories[s].ReadByte(addr), references[s].ReadByte(addr))
            << "step " << step << " side " << s << " addr " << addr;
      }
    } else if (op < 995) {
      const size_t from = rng() % 3;  // may be `side` itself
      memories[side] = memories[from];
      references[side] = references[from];
    } else {
      memories[side].Clear();
      references[side].Clear();
    }
    for (size_t s = 0; s < 3; ++s) {
      ASSERT_EQ(memories[s].resident_pages(), references[s].resident_pages())
          << "step " << step << " side " << s;
    }
  }
  for (size_t s = 0; s < 3; ++s) {
    SCOPED_TRACE("side " + std::to_string(s));
    ExpectSamePages(memories[s], references[s]);
    for (uint64_t addr : written) {
      ASSERT_EQ(memories[s].Read64(addr), references[s].Read64(addr)) << addr;
    }
  }
}

TEST(SparseMemoryDifferentialTest, CopiesDivergeLikeValueCopies) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunCopyOnWriteDifferential(seed, 20'000);
  }
}

TEST(SparseMemoryDifferentialTest, CopySharesEveryPageUntilItIsWritten) {
  // 3 leaves of pages below the flat limit plus two overflow pages.
  SparseMemory original;
  ReferenceMemory reference;
  for (uint64_t page = 0; page < 3 * 512; page += 3) {
    original.Write64(page * SparseMemory::kPageSize + 8, page);
    reference.Write64(page * SparseMemory::kPageSize + 8, page);
  }
  for (uint64_t addr : std::initializer_list<uint64_t>{SparseMemory::kFlatLimit, ~0ull - 7}) {
    original.Write64(addr, addr);
    reference.Write64(addr, addr);
  }
  SparseMemory copy(original);
  EXPECT_EQ(copy.resident_pages(), original.resident_pages());
  const std::map<uint64_t, const uint8_t*> before = PagesOf(original);
  const uint64_t flat_limit_page = SparseMemory::kFlatLimit >> SparseMemory::kPageBits;
  for (const auto& [number, bytes] : PagesOf(copy)) {
    // Directory pages are shared, overflow pages copied.
    EXPECT_EQ(bytes == before.at(number), number < flat_limit_page) << "page " << number;
  }

  // A misaligned write straddling pages 3 and 4 (4 is not resident yet)
  // gives the copy its own page 3, a new page 4, and nothing else.
  copy.Write64(4 * SparseMemory::kPageSize - 3, 0x0102030405060708ull);
  EXPECT_EQ(copy.resident_pages(), original.resident_pages() + 1);
  for (const auto& [number, bytes] : PagesOf(copy)) {
    if (number < flat_limit_page && number != 3 && number != 4) {
      EXPECT_EQ(bytes, before.at(number)) << "page " << number;
    }
  }
  EXPECT_NE(PagesOf(copy).at(3), before.at(3));
  EXPECT_EQ(PagesOf(original), before);
  ExpectSamePages(original, reference);
  EXPECT_EQ(copy.Read64(4 * SparseMemory::kPageSize - 3), 0x0102030405060708ull);
  EXPECT_EQ(copy.Read64(3 * SparseMemory::kPageSize + 8), 3u);  // copied with the page
  EXPECT_EQ(original.Read64(4 * SparseMemory::kPageSize - 3), 0u);

  // The original's pages outlive it in the copy; the copy's writes outlive
  // nothing of the original.
  original.Clear();
  EXPECT_EQ(original.resident_pages(), 0u);
  EXPECT_EQ(copy.Read64(6 * SparseMemory::kPageSize + 8), 6u);
  EXPECT_EQ(copy.Read64(600 * SparseMemory::kPageSize + 8), 600u);  // a leaf still shared
  EXPECT_EQ(copy.Read64(SparseMemory::kFlatLimit), SparseMemory::kFlatLimit);
  {
    SparseMemory scoped(copy);
    scoped.Write64(9 * SparseMemory::kPageSize + 8, 1234);
    copy = scoped;  // the copy now shares the scoped memory's pages
  }
  EXPECT_EQ(copy.Read64(9 * SparseMemory::kPageSize + 8), 1234u);
  EXPECT_EQ(copy.Read64(12 * SparseMemory::kPageSize + 8), 12u);
}

TEST(SparseMemoryDifferentialTest, MovedFromMemoryIsEmpty) {
  SparseMemory memory;
  memory.Write64(0x100000, 7);
  memory.Write64(SparseMemory::kFlatLimit + 64, 8);
  SparseMemory moved(std::move(memory));
  EXPECT_EQ(moved.resident_pages(), 2u);
  EXPECT_EQ(moved.Read64(0x100000), 7u);
  EXPECT_EQ(memory.resident_pages(), 0u);
  EXPECT_EQ(memory.Read64(0x100000), 0u);
  memory.Write64(0x100000, 9);
  EXPECT_EQ(moved.Read64(0x100000), 7u);
}

TEST(SparseMemoryDifferentialTest, CopiesWrittenOnTwoThreads) {
  // Two copies of one image, each written and then destroyed on its own
  // thread: both copy the shared leaves and pages at once and drop their
  // references at once. The reference counts must let neither thread see
  // the other's writes, and free each page exactly once.
  constexpr uint64_t kPages = 1024;  // two leaves
  std::array<SparseMemory, 2> copies;
  {
    SparseMemory image;
    for (uint64_t page = 0; page < kPages; ++page) {
      image.Write64(page * SparseMemory::kPageSize, page);
    }
    copies = {image, image};
  }
  std::array<uint64_t, 2> wrong = {0, 0};
  auto work = [&](size_t t) {
    SparseMemory mine = std::move(copies[t]);
    const uint64_t tag = (t + 1) << 32;
    for (uint64_t page = 0; page < kPages; page += 1 + t) {
      mine.Write64(page * SparseMemory::kPageSize + 8, tag | page);
    }
    for (uint64_t page = 0; page < kPages; ++page) {
      const uint64_t base = page * SparseMemory::kPageSize;
      const uint64_t expected = page % (1 + t) == 0 ? (tag | page) : 0;
      wrong[t] += (mine.Read64(base) != page) + (mine.Read64(base + 8) != expected);
    }
  };
  std::thread first(work, 0);
  std::thread second(work, 1);
  first.join();
  second.join();
  EXPECT_EQ(wrong[0], 0u);
  EXPECT_EQ(wrong[1], 0u);
}

}  // namespace
}  // namespace yieldhide::sim
