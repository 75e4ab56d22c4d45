#include "src/workloads/phased_chase.h"

#include "src/common/rng.h"
#include "src/isa/builder.h"
#include "src/workloads/zipf.h"

namespace yieldhide::workloads {

namespace {
// Register conventions for the phased chase program.
constexpr isa::Reg kRegNodeA = 1;   // current node address, phase A ring
constexpr isa::Reg kRegSteps = 2;   // remaining steps
constexpr isa::Reg kRegAcc = 3;     // checksum accumulator
constexpr isa::Reg kRegTmp = 4;     // payload scratch
constexpr isa::Reg kRegResult = 5;  // result slot address
constexpr isa::Reg kRegPhase = 6;   // 0 = phase A, nonzero = phase B
constexpr isa::Reg kRegNodeB = 7;   // current node address, phase B ring

// Builds a single cycle (Sattolo) over nodes [base, base+count) plus small
// payloads, appended to `next`/`payload`. A segment is closed under its own
// `next` pointers, so a task starting inside it never leaves it.
void MakeSegmentCycle(Rng& rng, uint64_t base, uint64_t count,
                      std::vector<uint32_t>& next,
                      std::vector<uint64_t>& payload) {
  next.resize(base + count);
  for (uint64_t i = 0; i < count; ++i) {
    next[base + i] = static_cast<uint32_t>(base + i);
  }
  for (uint64_t i = count - 1; i > 0; --i) {
    const uint64_t j = rng.NextBelow(i);
    std::swap(next[base + i], next[base + j]);
  }
  payload.resize(base + count);
  for (uint64_t i = 0; i < count; ++i) {
    payload[base + i] = rng.Next() & 0xffff;  // keep sums away from overflow
  }
}
}  // namespace

Result<PhasedChase> PhasedChase::Make(const Config& config) {
  if (config.num_nodes < 2) {
    return InvalidArgumentError("phased chase needs at least 2 nodes per ring");
  }
  if (config.severity < 0.0 || config.severity > 1.0) {
    return InvalidArgumentError("phased chase severity must be in [0, 1]");
  }
  if (config.zipf_mix) {
    if (config.hot_nodes < 2) {
      return InvalidArgumentError("phased chase zipf_mix needs hot_nodes >= 2");
    }
    if (config.zipf_theta <= 0.0 || config.zipf_theta >= 1.0) {
      return InvalidArgumentError("phased chase zipf_theta must be in (0, 1)");
    }
  }
  PhasedChase workload;
  workload.config_ = config;

  Rng rng(config.seed);
  MakeSegmentCycle(rng, 0, config.num_nodes, workload.next_a_,
                   workload.payload_a_);
  MakeSegmentCycle(rng, 0, config.num_nodes, workload.next_b_,
                   workload.payload_b_);
  if (config.zipf_mix) {
    // The hot segment rides at the tail of ring A: same loop, same load IPs,
    // but small enough to stay cache-resident once touched.
    MakeSegmentCycle(rng, config.num_nodes, config.hot_nodes, workload.next_a_,
                     workload.payload_a_);
  }

  // node layout (64 B): [next_addr:8][payload:8][pad:48] — same as
  // PointerChase; the two loops are structurally identical but load through
  // different registers from different rings, so their load IPs differ.
  isa::ProgramBuilder builder("phased_chase");
  auto loop_b = builder.NewLabel();
  auto done = builder.NewLabel();
  builder.Bne(kRegPhase, 0, loop_b);
  auto loop_a = builder.Here("loop_a");
  workload.miss_load_a_ = builder.next_address();
  builder.Load(kRegTmp, kRegNodeA, 8);                // payload (first touch)
  builder.Add(kRegAcc, kRegAcc, kRegTmp);
  builder.Load(kRegNodeA, kRegNodeA, 0);              // next (dependent load)
  builder.Addi(kRegSteps, kRegSteps, -1);
  builder.Bne(kRegSteps, 0, loop_a);
  builder.Jmp(done);
  builder.Bind(loop_b);
  workload.miss_load_b_ = builder.next_address();
  builder.Load(kRegTmp, kRegNodeB, 8);                // payload (first touch)
  builder.Add(kRegAcc, kRegAcc, kRegTmp);
  builder.Load(kRegNodeB, kRegNodeB, 0);              // next (dependent load)
  builder.Addi(kRegSteps, kRegSteps, -1);
  builder.Bne(kRegSteps, 0, loop_b);
  builder.Bind(done);
  builder.Store(kRegResult, 0, kRegAcc);
  builder.Halt();
  YH_ASSIGN_OR_RETURN(workload.program_, std::move(builder).Build());
  return workload;
}

void PhasedChase::WriteImage(sim::SparseMemory& memory) const {
  for (uint64_t i = 0; i < next_a_.size(); ++i) {
    memory.Write64(NodeAddrA(i) + 0, NodeAddrA(next_a_[i]));
    memory.Write64(NodeAddrA(i) + 8, payload_a_[i]);
  }
  for (uint64_t i = 0; i < config_.num_nodes; ++i) {
    memory.Write64(NodeAddrB(i) + 0, NodeAddrB(next_b_[i]));
    memory.Write64(NodeAddrB(i) + 8, payload_b_[i]);
  }
}

bool PhasedChase::Drifted(int index) const {
  if (index < config_.flip_task_index || config_.severity <= 0.0) {
    return false;
  }
  if (config_.severity >= 1.0) {
    return true;
  }
  // Deterministic per-index draw: same config, same phase sequence.
  Rng rng(config_.seed ^ (0xa5a5'0000ull + static_cast<uint64_t>(index)));
  return rng.NextBool(config_.severity);
}

int PhasedChase::PhaseOf(int index) const {
  return (!config_.zipf_mix && Drifted(index)) ? 1 : 0;
}

uint64_t PhasedChase::StartNode(int index) const {
  // Spread task start points around the ring.
  return (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull) % config_.num_nodes;
}

uint64_t PhasedChase::StartNodeA(int index) const {
  if (config_.zipf_mix && Drifted(index)) {
    // Skewed draw into the hot segment, deterministic per task index.
    ZipfianGenerator zipf(config_.hot_nodes, config_.zipf_theta,
                          config_.seed ^ (0x5a5a'0000ull +
                                          static_cast<uint64_t>(index)));
    return config_.num_nodes + zipf.Next();
  }
  return StartNode(index);
}

ContextSetup PhasedChase::SetupFor(int index) const {
  const int phase = PhaseOf(index);
  const uint64_t start_a = NodeAddrA(StartNodeA(index));
  const uint64_t start_b = NodeAddrB(StartNode(index));
  const uint64_t steps = config_.steps_per_task;
  const uint64_t result = ResultAddr(index);
  return [phase, start_a, start_b, steps, result](sim::CpuContext& ctx) {
    ctx.regs[kRegNodeA] = start_a;
    ctx.regs[kRegNodeB] = start_b;
    ctx.regs[kRegSteps] = steps;
    ctx.regs[kRegAcc] = 0;
    ctx.regs[kRegResult] = result;
    ctx.regs[kRegPhase] = static_cast<uint64_t>(phase);
  };
}

uint64_t PhasedChase::ExpectedResult(int index) const {
  const bool phase_b = PhaseOf(index) != 0;
  const auto& next = phase_b ? next_b_ : next_a_;
  const auto& payload = phase_b ? payload_b_ : payload_a_;
  uint64_t node = phase_b ? StartNode(index) : StartNodeA(index);
  uint64_t acc = 0;
  for (uint64_t step = 0; step < config_.steps_per_task; ++step) {
    acc += payload[node];
    node = next[node];
  }
  return acc;
}

}  // namespace yieldhide::workloads
