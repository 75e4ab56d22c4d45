#include "src/workloads/pointer_chase.h"

#include "src/common/rng.h"
#include "src/isa/builder.h"

namespace yieldhide::workloads {

namespace {
// Register conventions for the chase program.
constexpr isa::Reg kRegNode = 1;    // current node address
constexpr isa::Reg kRegSteps = 2;   // remaining steps
constexpr isa::Reg kRegAcc = 3;     // checksum accumulator
constexpr isa::Reg kRegTmp = 4;     // payload scratch
constexpr isa::Reg kRegResult = 5;  // result slot address
}  // namespace

Result<PointerChase> PointerChase::Make(const Config& config) {
  if (config.num_nodes < 2) {
    return InvalidArgumentError("pointer chase needs at least 2 nodes");
  }
  PointerChase workload;
  workload.config_ = config;

  // Sattolo's algorithm: a single cycle through all nodes, so any start node
  // walks the whole set without revisits shorter than num_nodes.
  Rng rng(config.seed);
  auto& next = workload.next_;
  next.resize(config.num_nodes);
  for (uint64_t i = 0; i < config.num_nodes; ++i) {
    next[i] = static_cast<uint32_t>(i);
  }
  for (uint64_t i = config.num_nodes - 1; i > 0; --i) {
    const uint64_t j = rng.NextBelow(i);
    std::swap(next[i], next[j]);
  }
  workload.payload_.resize(config.num_nodes);
  for (uint64_t i = 0; i < config.num_nodes; ++i) {
    workload.payload_[i] = rng.Next() & 0xffff;  // keep sums away from overflow
  }

  // node layout (64 B): [next_addr:8][payload:8][pad:48]
  isa::ProgramBuilder builder("pointer_chase");
  auto loop = builder.Here("loop");
  if (config.manual_prefetch_yield && config.manual_at_first_touch) {
    // Hand instrumentation at the TRUE miss site (found by hand-profiling).
    builder.Prefetch(kRegNode, 0);
    builder.Yield();
  }
  workload.miss_load_addr_ = builder.next_address();
  builder.Load(kRegTmp, kRegNode, 8);                 // payload (first touch)
  builder.Add(kRegAcc, kRegAcc, kRegTmp);
  if (config.manual_prefetch_yield && !config.manual_at_first_touch) {
    // Hand instrumentation where intuition points — the pointer dereference.
    // The node's line was already fetched by the payload load above, so this
    // prefetch is useless and the yield is pure overhead.
    builder.Prefetch(kRegNode, 0);
    builder.Yield();
  }
  workload.chase_load_addr_ = builder.next_address();
  builder.Load(kRegNode, kRegNode, 0);                // next (dependent load)
  builder.Addi(kRegSteps, kRegSteps, -1);
  builder.Bne(kRegSteps, 0, loop);
  builder.Store(kRegResult, 0, kRegAcc);
  builder.Halt();
  YH_ASSIGN_OR_RETURN(workload.program_, std::move(builder).Build());
  return workload;
}

void PointerChase::WriteImage(sim::SparseMemory& memory) const {
  for (uint64_t i = 0; i < config_.num_nodes; ++i) {
    memory.Write64(NodeAddr(i) + 0, NodeAddr(next_[i]));
    memory.Write64(NodeAddr(i) + 8, payload_[i]);
  }
}

uint64_t PointerChase::StartNode(int index) const {
  // Spread task start points around the cycle.
  return (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull) % config_.num_nodes;
}

ContextSetup PointerChase::SetupFor(int index) const {
  const uint64_t start = NodeAddr(StartNode(index));
  const uint64_t steps = config_.steps_per_task;
  const uint64_t result = ResultAddr(index);
  return [start, steps, result](sim::CpuContext& ctx) {
    ctx.regs[kRegNode] = start;
    ctx.regs[kRegSteps] = steps;
    ctx.regs[kRegAcc] = 0;
    ctx.regs[kRegResult] = result;
  };
}

uint64_t PointerChase::ExpectedResult(int index) const {
  uint64_t node = StartNode(index);
  uint64_t acc = 0;
  for (uint64_t step = 0; step < config_.steps_per_task; ++step) {
    acc += payload_[node];
    node = next_[node];
  }
  return acc;
}

}  // namespace yieldhide::workloads
