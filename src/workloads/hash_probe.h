// Hash-join probe: an open-addressing (linear probing) hash table is probed
// with a stream of keys, accumulating matched values — the database
// index-join workload of the coroutine-interleaving literature (Psaropoulos
// et al., CoroBase). The first bucket access of each probe is the
// profile-visible miss site; with a uniform key stream over a table larger
// than the LLC almost every probe misses.
#ifndef YIELDHIDE_SRC_WORKLOADS_HASH_PROBE_H_
#define YIELDHIDE_SRC_WORKLOADS_HASH_PROBE_H_

#include <vector>

#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace yieldhide::workloads {

class HashProbe : public SimWorkload {
 public:
  struct Config {
    uint64_t buckets_log2 = 18;   // 2^18 buckets x 16 B = 4 MiB
    double fill_factor = 0.5;     // fraction of buckets occupied
    uint64_t keys_per_task = 512;
    double hit_fraction = 0.8;    // probes that find their key
    uint64_t seed = 7;
    // Zipfian skew of probed keys; 0 = uniform. Skew concentrates probes on
    // few buckets, lowering per-site miss probability (bench C7's regime).
    double zipf_theta = 0.0;
    uint64_t num_tasks = 64;      // key streams are pregenerated per task
  };

  static Result<HashProbe> Make(const Config& config);

  const isa::Program& program() const override { return program_; }
  void WriteImage(sim::SparseMemory& memory) const override;
  ContextSetup SetupFor(int index) const override;
  uint64_t ExpectedResult(int index) const override;

  const Config& config() const { return config_; }
  // Address of the first bucket load of the probe loop.
  isa::Addr bucket_load_addr() const { return bucket_load_addr_; }

 private:
  HashProbe() = default;

  uint64_t num_buckets() const { return 1ull << config_.buckets_log2; }
  uint64_t BucketAddr(uint64_t bucket) const { return kDataRegionBase + bucket * 16; }
  uint64_t KeysAddr(int task) const {
    return kAuxRegionBase + static_cast<uint64_t>(task) * config_.keys_per_task * 8;
  }
  uint64_t HashOf(uint64_t key) const;

  Config config_;
  isa::Program program_;
  isa::Addr bucket_load_addr_ = 0;
  std::vector<uint64_t> table_keys_;    // 0 = empty
  std::vector<uint64_t> table_values_;
  std::vector<std::vector<uint64_t>> task_keys_;
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_HASH_PROBE_H_
