// Skip-list index lookups: the second index structure the coroutine-
// interleaving literature evaluates. Each lookup walks the express lanes
// top-down: high lanes are short (hot, cached), lane 0 holds every node
// (cold, misses) — so ONE load site sees a miss-probability gradient driven
// by the lane register, the hardest case for per-IP profile aggregation and
// the natural companion to the inlining experiment (C11).
#ifndef YIELDHIDE_SRC_WORKLOADS_SKIPLIST_LOOKUP_H_
#define YIELDHIDE_SRC_WORKLOADS_SKIPLIST_LOOKUP_H_

#include <vector>

#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace yieldhide::workloads {

class SkiplistLookup : public SimWorkload {
 public:
  struct Config {
    uint64_t num_keys = 1 << 16;
    int max_level = 12;          // geometric lane assignment, p = 1/2
    uint64_t lookups_per_task = 256;
    double hit_fraction = 0.9;
    uint64_t seed = 21;
    uint64_t num_tasks = 64;
  };

  static Result<SkiplistLookup> Make(const Config& config);

  const isa::Program& program() const override { return program_; }
  void WriteImage(sim::SparseMemory& memory) const override;
  ContextSetup SetupFor(int index) const override;
  uint64_t ExpectedResult(int index) const override;

  const Config& config() const { return config_; }
  // The forward-pointer load executed at every descent step.
  isa::Addr next_load_addr() const { return next_load_addr_; }

 private:
  SkiplistLookup() = default;

  // Node layout: [key:8][value:8][next[0]:8]...[next[max_level-1]:8],
  // allocated in scattered slot order. Slot 0 is the head sentinel
  // (key = 0, below every real key; real keys are >= 2).
  uint64_t NodeBytes() const { return 16 + 8 * static_cast<uint64_t>(config_.max_level); }
  uint64_t NodeAddr(uint64_t slot) const {
    return kDataRegionBase + 64 + slot * NodeBytes();
  }
  uint64_t LookupAddr(int task) const {
    return kAuxRegionBase + static_cast<uint64_t>(task) * config_.lookups_per_task * 8;
  }

  Config config_;
  isa::Program program_;
  isa::Addr next_load_addr_ = 0;
  uint64_t head_slot_ = 0;
  // Host mirror, indexed by slot (0 = head).
  std::vector<uint64_t> node_key_, node_value_;
  std::vector<std::vector<uint64_t>> node_next_;  // [slot][level] -> address or 0
  std::vector<std::vector<uint64_t>> task_lookups_;
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_SKIPLIST_LOOKUP_H_
