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
// Both structures a simulated access touches are laid out for the host's
// caches, since the simulator is itself bound by host misses on its own data.
// This table resolves a page by indexing alone, with no hashing. The
// cache levels in front of it (src/sim/cache.h) keep one uint64_t array,
// blocked by set: each set's `ways` tags, then its `ways` LRU stamps, with the
// sentinel tag ~0 marking an invalid way.
#ifndef YIELDHIDE_SRC_SIM_MEMORY_H_
#define YIELDHIDE_SRC_SIM_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace yieldhide::sim {

class SparseMemory {
 public:
  static constexpr uint64_t kPageBits = 12;
  static constexpr uint64_t kPageSize = 1ull << kPageBits;
  static constexpr uint64_t kLeafBits = 9;  // 512 pages = 2 MiB per leaf
  static constexpr uint64_t kFlatLimit = 1ull << 36;

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

  // Host-side hint that `addr` will be read soon: starts a host cache fill
  // of the image bytes. No effect on the image or on anything simulated.
  void HostPrefetch(uint64_t addr) const {
    if (addr < kFlatLimit) {
      if (const uint8_t* page = FindFlatPage(addr)) {
        __builtin_prefetch(page + (addr & (kPageSize - 1)));
      }
    }
  }

  size_t resident_pages() const { return resident_pages_; }
  size_t resident_bytes() const { return resident_pages_ * kPageSize; }

  void Clear() {
    directory_.clear();
    overflow_.clear();
    resident_pages_ = 0;
  }

 private:
  using Page = std::unique_ptr<uint8_t[]>;
  struct Leaf {
    Page pages[1 << kLeafBits];
  };

  static uint64_t LeafIndex(uint64_t addr) { return addr >> (kPageBits + kLeafBits); }
  static uint64_t PageInLeaf(uint64_t addr) {
    return (addr >> kPageBits) & ((1 << kLeafBits) - 1);
  }

  const uint8_t* FindFlatPage(uint64_t addr) const {
    const uint64_t leaf = LeafIndex(addr);
    if (leaf >= directory_.size() || directory_[leaf] == nullptr) {
      return nullptr;
    }
    return directory_[leaf]->pages[PageInLeaf(addr)].get();
  }

  const uint8_t* FindPage(uint64_t addr) const {
    if (addr < kFlatLimit) {
      return FindFlatPage(addr);
    }
    auto it = overflow_.find(addr >> kPageBits);
    return it == overflow_.end() ? nullptr : it->second.get();
  }

  Page& PageSlot(uint64_t addr) {
    if (addr >= kFlatLimit) {
      return overflow_[addr >> kPageBits];
    }
    const uint64_t leaf = LeafIndex(addr);
    if (leaf >= directory_.size()) {
      directory_.resize(leaf + 1);
    }
    if (directory_[leaf] == nullptr) {
      directory_[leaf] = std::make_unique<Leaf>();
    }
    return directory_[leaf]->pages[PageInLeaf(addr)];
  }

  uint8_t* EnsurePage(uint64_t addr) {
    Page& slot = PageSlot(addr);
    if (slot == nullptr) {
      slot = std::make_unique<uint8_t[]>(kPageSize);  // zero-filled
      ++resident_pages_;
    }
    return slot.get();
  }

  std::vector<std::unique_ptr<Leaf>> directory_;
  std::unordered_map<uint64_t, Page> overflow_;
  size_t resident_pages_ = 0;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_MEMORY_H_
