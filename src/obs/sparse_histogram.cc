#include "src/obs/sparse_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace yieldhide::obs {

int SparseHistogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - __builtin_clzll(value);
  const int group = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>((value >> (group - 1)) - kSubBuckets);
  return group * kSubBuckets + sub;
}

uint64_t SparseHistogram::BucketUpperBound(int index) {
  const int group = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (group == 0) {
    return static_cast<uint64_t>(sub);
  }
  const int shift = group - 1;
  return ((static_cast<uint64_t>(kSubBuckets + sub) + 1) << shift) - 1;
}

void SparseHistogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  const int32_t index = BucketIndex(value);
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const std::pair<int32_t, uint64_t>& b, int32_t i) { return b.first < i; });
  if (it != buckets_.end() && it->first == index) {
    it->second += n;
  } else {
    buckets_.emplace(it, index, n);
  }
  count_ += n;
  sum_ += value * n;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void SparseHistogram::Merge(const SparseHistogram& other) {
  std::vector<std::pair<int32_t, uint64_t>> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  auto a = buckets_.begin();
  auto b = other.buckets_.begin();
  while (a != buckets_.end() || b != other.buckets_.end()) {
    if (b == other.buckets_.end() ||
        (a != buckets_.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == buckets_.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  buckets_ = std::move(merged);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SparseHistogram::Reset() { *this = SparseHistogram(); }

uint64_t SparseHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets_) {  // sorted by index
    seen += n;
    if (seen >= target) {
      return std::min<uint64_t>(BucketUpperBound(index), max_);
    }
  }
  return max_;
}

std::string SparseHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%llu p95=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(P50()),
                static_cast<unsigned long long>(P95()),
                static_cast<unsigned long long>(P99()),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace yieldhide::obs
