// A pointer-chase service whose miss profile shifts mid-run — the drifting
// workload of the online-adaptation experiments (A1, docs/ONLINE.md).
//
// The program carries TWO independent dependent-load loops over two disjoint
// node rings (phase A at kDataRegionBase, phase B at kAuxRegionBase); a
// per-task register selects which loop runs. Early tasks all run phase A, so
// an offline profile only ever sees phase A's loads. From `flip_task_index`
// on, each task switches to phase B with probability `severity`: phase B's
// loads miss just as hard but carry different IPs, so the existing
// instrumentation hides nothing — exactly the staleness the online loop must
// detect (hot uninstrumented sites) and repair (re-instrument + hot-swap).
#ifndef YIELDHIDE_SRC_WORKLOADS_PHASED_CHASE_H_
#define YIELDHIDE_SRC_WORKLOADS_PHASED_CHASE_H_

#include <vector>

#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace yieldhide::workloads {

class PhasedChase : public SimWorkload {
 public:
  struct Config {
    uint64_t num_nodes = 1 << 16;  // per ring; 64 B per node
    uint64_t steps_per_task = 1024;
    uint64_t seed = 42;
    // First task index at which phase B becomes possible.
    int flip_task_index = 8;
    // P(task >= flip runs phase B); 0 = no drift, 1 = full phase change.
    // Drawn deterministically per task index, so runs are reproducible.
    double severity = 1.0;
    // Zipf-mix drift: instead of moving drifted traffic to phase B (fresh
    // IPs, which the APPEARANCE term of the drift score catches), drifted
    // tasks keep running loop A but chase a small cache-resident hot segment
    // appended to ring A, start node drawn Zipf-skewed. Same load IPs, but
    // the loads now mostly HIT — the installed yields hide nothing — so
    // appearance stays ~0 and only the DIVERGENCE term carries the signal.
    bool zipf_mix = false;
    double zipf_theta = 0.99;  // skew of the hot-segment start draw, (0, 1)
    uint64_t hot_nodes = 512;  // hot-segment size; must fit in cache
  };

  static Result<PhasedChase> Make(const Config& config);

  const isa::Program& program() const override { return program_; }
  void WriteImage(sim::SparseMemory& memory) const override;
  ContextSetup SetupFor(int index) const override;
  uint64_t ExpectedResult(int index) const override;

  const Config& config() const { return config_; }
  // Which loop task `index` runs: 0 = phase A, 1 = phase B. In zipf_mix mode
  // every task runs loop A (drift moves data, not code).
  int PhaseOf(int index) const;
  // Whether task `index` drew the drifted behavior (phase B normally, the
  // Zipf-skewed hot segment in zipf_mix mode).
  bool Drifted(int index) const;
  // Payload loads (first touch of each node's line = the true miss sites).
  isa::Addr miss_load_a() const { return miss_load_a_; }
  isa::Addr miss_load_b() const { return miss_load_b_; }

 private:
  PhasedChase() = default;

  uint64_t NodeAddrA(uint64_t node) const { return kDataRegionBase + node * 64; }
  uint64_t NodeAddrB(uint64_t node) const { return kAuxRegionBase + node * 64; }
  uint64_t StartNode(int index) const;
  // Ring-A start node for task `index`: the Zipf-skewed hot-segment draw for
  // drifted zipf_mix tasks, the spread base-ring start otherwise.
  uint64_t StartNodeA(int index) const;

  Config config_;
  isa::Program program_;
  isa::Addr miss_load_a_ = 0;
  isa::Addr miss_load_b_ = 0;
  std::vector<uint32_t> next_a_, next_b_;      // ring permutations
  std::vector<uint64_t> payload_a_, payload_b_;
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_PHASED_CHASE_H_
