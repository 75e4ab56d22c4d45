// SparseHistogram: a cheap log-bucketed histogram for per-site distributions.
//
// Same bucket geometry as LatencyHistogram (geometric octave groups split
// into 32 sub-buckets, so relative quantization error is bounded by 1/32) but
// only the touched buckets are stored. A per-site switch-cost distribution
// typically touches a handful of buckets; keeping thousands of such
// histograms dense would dominate the registry's footprint, while the sparse
// form costs O(distinct magnitudes) — usually a few dozen bytes. This is the
// "cheap sparse-histogram representation" the histogram-typed per-site
// metrics ROADMAP item asked for.
//
// The touched buckets live in a vector of (index, count) pairs sorted by
// index, not in a tree. Quantiles are read far more often than new buckets
// appear (the serving front end reads p50/p99/p999 at every poll), and a
// quantile is then a walk over contiguous memory; recording finds its bucket
// by binary search and inserts only on a new magnitude, and merging is one
// linear pass over two sorted lists.
//
// Quantiles return the upper bound of the bucket containing the quantile
// (clamped to the exact max), so p50 <= p95 <= p99 <= max() always holds and
// merging two histograms is exactly equivalent to recording the concatenated
// sample streams.
#ifndef YIELDHIDE_SRC_OBS_SPARSE_HISTOGRAM_H_
#define YIELDHIDE_SRC_OBS_SPARSE_HISTOGRAM_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace yieldhide::obs {

class SparseHistogram {
 public:
  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t n);
  void Merge(const SparseHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1] (upper bound of the containing bucket,
  // clamped to max()). Returns 0 with no samples.
  uint64_t ValueAtQuantile(double q) const;
  uint64_t P50() const { return ValueAtQuantile(0.50); }
  uint64_t P95() const { return ValueAtQuantile(0.95); }
  uint64_t P99() const { return ValueAtQuantile(0.99); }

  // Number of touched buckets (the sparse footprint).
  size_t bucket_count() const { return buckets_.size(); }

  // "n=... mean=... p50=... p95=... p99=... max=..." one-line rendering.
  std::string Summary() const;

  // Bucket geometry, shared with LatencyHistogram: exact buckets below
  // kSubBuckets, then 32 sub-buckets per power-of-two group. Exposed for the
  // boundary-straddle tests.
  static int BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(int index);

 private:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  // (bucket index, count), sorted by index; only touched buckets.
  std::vector<std::pair<int32_t, uint64_t>> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_SPARSE_HISTOGRAM_H_
