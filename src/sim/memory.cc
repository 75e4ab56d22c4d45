#include "src/sim/memory.h"

#include <utility>

namespace yieldhide::sim {

SparseMemory::SparseMemory(const SparseMemory& other)
    : directory_(other.directory_),
      overflow_(other.overflow_),
      resident_pages_(other.resident_pages_) {
  for (Leaf* leaf : directory_) {
    if (leaf != nullptr) {
      leaf->refs.fetch_add(1);
    }
  }
}

SparseMemory& SparseMemory::operator=(const SparseMemory& other) {
  if (this != &other) {
    *this = SparseMemory(other);
  }
  return *this;
}

SparseMemory::SparseMemory(SparseMemory&& other) noexcept
    : directory_(std::move(other.directory_)),
      overflow_(std::move(other.overflow_)),
      resident_pages_(std::exchange(other.resident_pages_, 0)) {
  other.directory_.clear();
  other.overflow_.clear();
}

SparseMemory& SparseMemory::operator=(SparseMemory&& other) noexcept {
  if (this != &other) {
    Clear();
    directory_.swap(other.directory_);
    overflow_.swap(other.overflow_);
    std::swap(resident_pages_, other.resident_pages_);
  }
  return *this;
}

SparseMemory::~SparseMemory() { Clear(); }

void SparseMemory::Clear() {
  for (Leaf* leaf : directory_) {
    Unref(leaf);
  }
  directory_.clear();
  overflow_.clear();
  resident_pages_ = 0;
}

void SparseMemory::Unref(Page* page) {
  if (page != nullptr && page->refs.fetch_sub(1) == 1) {
    delete page;
  }
}

void SparseMemory::Unref(Leaf* leaf) {
  if (leaf != nullptr && leaf->refs.fetch_sub(1) == 1) {
    for (Page* page : leaf->pages) {
      Unref(page);
    }
    delete leaf;
  }
}

uint8_t* SparseMemory::EnsurePageSlow(uint64_t addr) {
  if (addr >= kFlatLimit) {
    auto [it, inserted] = overflow_.try_emplace(addr >> kPageBits);  // zero-filled
    resident_pages_ += inserted ? 1 : 0;
    return it->second.data();
  }
  const uint64_t index = LeafIndex(addr);
  if (index >= directory_.size()) {
    directory_.resize(index + 1, nullptr);
  }
  Leaf*& leaf = directory_[index];
  if (leaf == nullptr) {
    leaf = new Leaf();
  } else if (!Exclusive(leaf->refs)) {
    // Our own leaf over the same pages; each page gains a referrer.
    Leaf* own = new Leaf();
    for (uint64_t slot = 0; slot < (1 << kLeafBits); ++slot) {
      if (Page* page = leaf->pages[slot]) {
        page->refs.fetch_add(1);
        own->pages[slot] = page;
      }
    }
    Unref(leaf);
    leaf = own;
  }
  Page*& page = leaf->pages[PageInLeaf(addr)];
  if (page == nullptr) {
    page = new Page();  // zero-filled
    ++resident_pages_;
  } else if (!Exclusive(page->refs)) {
    Page* own = new Page;
    std::memcpy(own->bytes, page->bytes, kPageSize);
    Unref(page);
    page = own;
  }
  return page->bytes;
}

}  // namespace yieldhide::sim
