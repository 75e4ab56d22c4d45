// Differential test: obs::SparseHistogram against a reference model, driven
// by seeded random RecordN streams and merges.
//
// ReferenceSparseHistogram is the original std::map form of the histogram:
// the same bucket geometry and quantile rule, with the touched buckets in a
// red-black tree. Count, sum, min, max, bucket count, the Summary() line and
// the quantiles must match after every stream and every merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/obs/sparse_histogram.h"

namespace yieldhide::obs {
namespace {

class ReferenceSparseHistogram {
 public:
  void RecordN(uint64_t value, uint64_t n) {
    if (n == 0) {
      return;
    }
    buckets_[BucketIndex(value)] += n;
    count_ += n;
    sum_ += value * n;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void Merge(const ReferenceSparseHistogram& other) {
    for (const auto& [index, n] : other.buckets_) {
      buckets_[index] += n;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  size_t bucket_count() const { return buckets_.size(); }

  uint64_t ValueAtQuantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const uint64_t target =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (const auto& [index, n] : buckets_) {
      seen += n;
      if (seen >= target) {
        return std::min<uint64_t>(BucketUpperBound(index), max_);
      }
    }
    return max_;
  }

  std::string Summary() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu mean=%.1f p50=%llu p95=%llu p99=%llu max=%llu",
                  static_cast<unsigned long long>(count_), mean(),
                  static_cast<unsigned long long>(ValueAtQuantile(0.50)),
                  static_cast<unsigned long long>(ValueAtQuantile(0.95)),
                  static_cast<unsigned long long>(ValueAtQuantile(0.99)),
                  static_cast<unsigned long long>(max_));
    return buf;
  }

 private:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static int BucketIndex(uint64_t value) {
    if (value < kSubBuckets) {
      return static_cast<int>(value);
    }
    const int msb = 63 - __builtin_clzll(value);
    const int group = msb - kSubBucketBits + 1;
    const int sub = static_cast<int>((value >> (group - 1)) - kSubBuckets);
    return group * kSubBuckets + sub;
  }

  static uint64_t BucketUpperBound(int index) {
    const int group = index / kSubBuckets;
    const int sub = index % kSubBuckets;
    if (group == 0) {
      return static_cast<uint64_t>(sub);
    }
    const int shift = group - 1;
    return ((static_cast<uint64_t>(kSubBuckets + sub) + 1) << shift) - 1;
  }

  std::map<int32_t, uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

struct Pair {
  SparseHistogram real;
  ReferenceSparseHistogram ref;

  void RecordN(uint64_t value, uint64_t n) {
    real.RecordN(value, n);
    ref.RecordN(value, n);
  }
  void Merge(const Pair& other) {
    real.Merge(other.real);
    ref.Merge(other.ref);
  }
};

void ExpectSame(const Pair& p, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(p.real.count(), p.ref.count());
  EXPECT_EQ(p.real.sum(), p.ref.sum());
  EXPECT_EQ(p.real.min(), p.ref.min());
  EXPECT_EQ(p.real.max(), p.ref.max());
  EXPECT_EQ(p.real.bucket_count(), p.ref.bucket_count());
  EXPECT_EQ(p.real.Summary(), p.ref.Summary());
  for (const double q : {0.0, 1e-9, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(p.real.ValueAtQuantile(q), p.ref.ValueAtQuantile(q)) << "q=" << q;
  }
}

// Values below the exact range, at and beside every power-of-two group edge,
// and anywhere up to 2^64-1.
uint64_t DrawValue(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return rng() % 32;
    case 1: {
      const int bit = static_cast<int>(rng() % 64);
      const uint64_t edge = uint64_t{1} << bit;
      const uint64_t offsets[] = {edge - 1, edge, edge + 1};
      return offsets[rng() % 3];
    }
    case 2:
      return std::numeric_limits<uint64_t>::max() - rng() % 3;
    default:
      return rng() >> (rng() % 64);
  }
}

// n from 0 up to 2^20, small counts most often.
uint64_t DrawCount(std::mt19937_64& rng) {
  if (rng() % 4 == 0) {
    return rng() % ((uint64_t{1} << 20) + 1);
  }
  return rng() % 8;
}

Pair RandomStream(std::mt19937_64& rng, size_t records) {
  Pair p;
  for (size_t i = 0; i < records; ++i) {
    p.RecordN(DrawValue(rng), DrawCount(rng));
  }
  return p;
}

TEST(SparseHistogramDifferentialTest, RandomRecordNStreams) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    Pair p;
    const size_t records = 1 + rng() % 400;
    for (size_t i = 0; i < records; ++i) {
      p.RecordN(DrawValue(rng), DrawCount(rng));
      if (i % 37 == 0) {
        ExpectSame(p, "seed " + std::to_string(seed) + " record " +
                          std::to_string(i));
      }
    }
    ExpectSame(p, "seed " + std::to_string(seed));
  }
}

TEST(SparseHistogramDifferentialTest, EveryGroupEdge) {
  Pair p;
  ExpectSame(p, "empty");
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t edge = uint64_t{1} << bit;
    p.RecordN(edge - 1, 1);
    p.RecordN(edge, 2);
    p.RecordN(edge + 1, 3);
  }
  p.RecordN(std::numeric_limits<uint64_t>::max(), uint64_t{1} << 20);
  ExpectSame(p, "edges");
}

TEST(SparseHistogramDifferentialTest, MergeDisjointOverlappingAndEmpty) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    std::mt19937_64 rng(seed);
    // Disjoint: small values against large ones, in both orders.
    Pair small;
    Pair large;
    for (int i = 0; i < 50; ++i) {
      small.RecordN(rng() % 1000, 1 + rng() % 5);
      large.RecordN((uint64_t{1} << 40) + rng() % (uint64_t{1} << 30),
                    1 + rng() % 5);
    }
    Pair small_then_large = small;
    small_then_large.Merge(large);
    ExpectSame(small_then_large, "disjoint a+b seed " + std::to_string(seed));
    Pair large_then_small = large;
    large_then_small.Merge(small);
    ExpectSame(large_then_small, "disjoint b+a seed " + std::to_string(seed));

    // Overlapping random streams.
    Pair a = RandomStream(rng, 1 + rng() % 200);
    const Pair b = RandomStream(rng, 1 + rng() % 200);
    a.Merge(b);
    ExpectSame(a, "overlapping seed " + std::to_string(seed));

    // Empty into non-empty, non-empty into empty, empty into empty.
    const Pair empty;
    Pair into_full = b;
    into_full.Merge(empty);
    ExpectSame(into_full, "empty into full seed " + std::to_string(seed));
    Pair into_empty;
    into_empty.Merge(b);
    ExpectSame(into_empty, "full into empty seed " + std::to_string(seed));
    Pair both_empty;
    both_empty.Merge(empty);
    ExpectSame(both_empty, "empty into empty");

    // Merging is recording the concatenated streams.
    Pair self = b;
    self.Merge(self);
    ExpectSame(self, "self merge seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace yieldhide::obs
