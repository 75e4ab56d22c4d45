// Sparse byte-addressed memory image. Pages are allocated lazily so workloads
// can use large, widely spread address ranges without committing host memory
// for untouched regions. Unwritten bytes read as zero.
//
// Page table: addresses below kFlatLimit (64 GiB) resolve through a flat
// directory of 2 MiB leaves, indexed by addr >> 21; each leaf holds 512 page
// pointers. The directory grows on demand up to the highest leaf written, so
// an image below 2 GiB needs at most 1024 directory slots. Addresses at or
// above kFlatLimit — the ISA allows any 64-bit address, but no workload goes
// there — fall back to a hash map keyed by page number.
//
// Copies share, copy-on-write. Copying a memory copies only the directory and
// takes a reference on each leaf, so one workload image can back many
// machines at the cost of a few pointers each. Leaves and pages carry
// reference counts; the first write through a shared leaf gives the writer
// its own leaf (512 pointers, same pages), and the first write to a shared
// page gives it its own copy of that page, so every other copy keeps the
// bytes it had. The overflow map is copied deeply. Counts are atomic, so
// copies may live on different threads; one memory object is still used by
// one thread at a time.
//
// Both structures a simulated access touches are laid out for the host's
// caches, since the simulator is itself bound by host misses on its own data.
// This table resolves a page by indexing alone, with no hashing: a leaf slot
// is a plain pointer to the page's bytes (the count sits after them), so
// sharing adds no indirection to Read64 or HostBytes. Write64 checks both
// counts inline and leaves the page to an out-of-line path only when it is
// missing or shared. For every simulated LOAD, LOADX and PREFETCH, the
// executor host-prefetches the image bytes through HostBytes before it walks
// the simulated cache tags, so the two host misses overlap. The cache levels
// in front of it (src/sim/cache.h) keep one uint64_t array, blocked by set:
// each set's `ways` tags in recency order, the sentinel tag ~0 marking an
// invalid way.
#ifndef YIELDHIDE_SRC_SIM_MEMORY_H_
#define YIELDHIDE_SRC_SIM_MEMORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace yieldhide::sim {

class SparseMemory {
 public:
  static constexpr uint64_t kPageBits = 12;
  static constexpr uint64_t kPageSize = 1ull << kPageBits;
  static constexpr uint64_t kLeafBits = 9;  // 512 pages = 2 MiB per leaf
  static constexpr uint64_t kFlatLimit = 1ull << 36;

  SparseMemory() = default;
  // Shares every leaf and page of `other`; see the header comment.
  SparseMemory(const SparseMemory& other);
  SparseMemory& operator=(const SparseMemory& other);
  SparseMemory(SparseMemory&& other) noexcept;
  SparseMemory& operator=(SparseMemory&& other) noexcept;
  ~SparseMemory();

  uint64_t Read64(uint64_t addr) const {
    // Misaligned reads spanning a page boundary are assembled bytewise; the
    // aligned fast path covers virtually all workload traffic.
    if ((addr & 7) == 0 || (addr & (kPageSize - 1)) <= kPageSize - 8) {
      const uint8_t* page = FindPage(addr);
      if (page == nullptr) {
        return 0;
      }
      uint64_t value;
      std::memcpy(&value, page + (addr & (kPageSize - 1)), sizeof(value));
      return value;
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(ReadByte(addr + i)) << (8 * i);
    }
    return value;
  }

  void Write64(uint64_t addr, uint64_t value) {
    if ((addr & (kPageSize - 1)) <= kPageSize - 8) {
      uint8_t* page = EnsurePage(addr);
      std::memcpy(page + (addr & (kPageSize - 1)), &value, sizeof(value));
      return;
    }
    for (int i = 0; i < 8; ++i) {
      WriteByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  uint8_t ReadByte(uint64_t addr) const {
    const uint8_t* page = FindPage(addr);
    return page == nullptr ? 0 : page[addr & (kPageSize - 1)];
  }

  void WriteByte(uint64_t addr, uint8_t value) {
    EnsurePage(addr)[addr & (kPageSize - 1)] = value;
  }

  // The host address of the byte at `addr` when its page is resident and
  // below kFlatLimit, else nullptr. Never allocates. For host prefetch hints,
  // which the caller must issue itself (see Executor::Step).
  const uint8_t* HostBytes(uint64_t addr) const {
    if (addr >= kFlatLimit) {
      return nullptr;
    }
    const uint8_t* page = FindFlatPage(addr);
    return page == nullptr ? nullptr : page + (addr & (kPageSize - 1));
  }

  // Pages this memory holds, shared or not: every page written since the
  // last Clear, in this memory or in the one it was copied from.
  size_t resident_pages() const { return resident_pages_; }
  size_t resident_bytes() const { return resident_pages_ * kPageSize; }

  // Calls fn(page_base_address, const uint8_t* page_bytes) for every
  // resident page: directory pages in address order, then overflow pages in
  // no particular order.
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    for (uint64_t leaf = 0; leaf < directory_.size(); ++leaf) {
      if (directory_[leaf] == nullptr) {
        continue;
      }
      for (uint64_t slot = 0; slot < (1 << kLeafBits); ++slot) {
        if (const Page* page = directory_[leaf]->pages[slot]) {
          fn(((leaf << kLeafBits) | slot) << kPageBits, page->bytes);
        }
      }
    }
    for (const auto& [number, bytes] : overflow_) {
      fn(number << kPageBits, bytes.data());
    }
  }

  void Clear();

 private:
  // The bytes come first, so a page pointer is a pointer to its bytes.
  struct Page {
    uint8_t bytes[kPageSize];
    std::atomic<uint32_t> refs{1};  // leaves pointing here
  };
  struct Leaf {
    Page* pages[1 << kLeafBits] = {};
    std::atomic<uint32_t> refs{1};  // memories whose directory points here
  };

  static uint64_t LeafIndex(uint64_t addr) { return addr >> (kPageBits + kLeafBits); }
  static uint64_t PageInLeaf(uint64_t addr) {
    return (addr >> kPageBits) & ((1 << kLeafBits) - 1);
  }
  static bool Exclusive(const std::atomic<uint32_t>& refs) {
    return refs.load() == 1;
  }

  const uint8_t* FindFlatPage(uint64_t addr) const {
    const uint64_t leaf = LeafIndex(addr);
    if (leaf >= directory_.size() || directory_[leaf] == nullptr) {
      return nullptr;
    }
    const Page* page = directory_[leaf]->pages[PageInLeaf(addr)];
    return page == nullptr ? nullptr : page->bytes;
  }

  const uint8_t* FindPage(uint64_t addr) const {
    if (addr < kFlatLimit) {
      return FindFlatPage(addr);
    }
    auto it = overflow_.find(addr >> kPageBits);
    return it == overflow_.end() ? nullptr : it->second.data();
  }

  // The writable page holding `addr`: inline when this memory alone owns
  // both the leaf and the page, else EnsurePageSlow allocates or copies.
  uint8_t* EnsurePage(uint64_t addr) {
    if (addr < kFlatLimit) {
      const uint64_t leaf = LeafIndex(addr);
      if (leaf < directory_.size() && directory_[leaf] != nullptr &&
          Exclusive(directory_[leaf]->refs)) {
        Page* page = directory_[leaf]->pages[PageInLeaf(addr)];
        if (page != nullptr && Exclusive(page->refs)) {
          return page->bytes;
        }
      }
    }
    return EnsurePageSlow(addr);
  }
  uint8_t* EnsurePageSlow(uint64_t addr);

  static void Unref(Page* page);
  static void Unref(Leaf* leaf);

  std::vector<Leaf*> directory_;  // null: no page written in that leaf
  std::unordered_map<uint64_t, std::array<uint8_t, kPageSize>> overflow_;
  size_t resident_pages_ = 0;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_MEMORY_H_
