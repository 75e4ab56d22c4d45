// Pointer chasing over a random permutation of cache-line-sized nodes — the
// canonical "killer nanoseconds" workload: every step is a dependent load
// that, for working sets beyond the LLC slice it fits in, misses L2/L3.
// The paper calls this case out explicitly: a pointer-chasing coroutine in
// scavenger mode cannot make forward progress past a miss and must rely on
// other scavengers to fill the hide window.
#ifndef YIELDHIDE_SRC_WORKLOADS_POINTER_CHASE_H_
#define YIELDHIDE_SRC_WORKLOADS_POINTER_CHASE_H_

#include <vector>

#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace yieldhide::workloads {

class PointerChase : public SimWorkload {
 public:
  struct Config {
    uint64_t num_nodes = 1 << 16;  // 64 B per node: 4 MiB at 1<<16
    uint64_t steps_per_task = 1024;
    uint64_t seed = 42;
    // When true the source already contains a CoroBase-style hand-written
    // prefetch+yield (the "manual" baseline of bench C3). By default the
    // developer places it where intuition says the miss is — before the
    // pointer dereference — which is WRONG here: the payload load at +8
    // touches the node's line first and takes the miss (the paper's
    // "challenging and error-prone even for domain experts"). Setting
    // manual_at_first_touch models the expert who profiled by hand and
    // found the real site.
    bool manual_prefetch_yield = false;
    bool manual_at_first_touch = false;
  };

  static Result<PointerChase> Make(const Config& config);

  const isa::Program& program() const override { return program_; }
  void WriteImage(sim::SparseMemory& memory) const override;
  ContextSetup SetupFor(int index) const override;
  uint64_t ExpectedResult(int index) const override;

  const Config& config() const { return config_; }
  // Address of the dependent next-pointer load.
  isa::Addr chase_load_addr() const { return chase_load_addr_; }
  // Address of the payload load — the FIRST touch of each node and therefore
  // the load that actually takes the miss (the next-pointer load at +0 then
  // hits the same 64-byte line). Tests assert the profiler finds this site.
  isa::Addr miss_load_addr() const { return miss_load_addr_; }

 private:
  PointerChase() = default;

  uint64_t NodeAddr(uint64_t node) const { return kDataRegionBase + node * 64; }
  uint64_t StartNode(int index) const;

  Config config_;
  isa::Program program_;
  isa::Addr chase_load_addr_ = 0;
  isa::Addr miss_load_addr_ = 0;
  std::vector<uint32_t> next_;     // permutation
  std::vector<uint64_t> payload_;  // per-node payload values
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_POINTER_CHASE_H_
