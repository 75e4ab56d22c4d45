#include "src/workloads/array_scan.h"

#include "src/common/rng.h"
#include "src/isa/builder.h"

namespace yieldhide::workloads {

namespace {
constexpr isa::Reg kRegCursor = 1;
constexpr isa::Reg kRegCount = 2;
constexpr isa::Reg kRegAcc = 3;
constexpr isa::Reg kRegTmp = 4;
constexpr isa::Reg kRegResult = 5;
}  // namespace

Result<ArrayScan> ArrayScan::Make(const Config& config) {
  if (config.num_elements == 0 || config.elements_per_task == 0) {
    return InvalidArgumentError("array scan needs elements");
  }
  if (config.elements_per_task > config.num_elements) {
    return InvalidArgumentError("elements_per_task exceeds array size");
  }
  ArrayScan workload;
  workload.config_ = config;

  Rng rng(config.seed);
  workload.values_.resize(config.num_elements);
  for (uint64_t i = 0; i < config.num_elements; ++i) {
    workload.values_[i] = rng.Next() & 0xffff;
  }

  isa::ProgramBuilder builder("array_scan");
  auto loop = builder.Here("loop");
  builder.Load(kRegTmp, kRegCursor, 0);
  builder.Add(kRegAcc, kRegAcc, kRegTmp);
  builder.Addi(kRegCursor, kRegCursor, 8);
  builder.Addi(kRegCount, kRegCount, -1);
  builder.Bne(kRegCount, 0, loop);
  builder.Store(kRegResult, 0, kRegAcc);
  builder.Halt();
  YH_ASSIGN_OR_RETURN(workload.program_, std::move(builder).Build());
  return workload;
}

void ArrayScan::WriteImage(sim::SparseMemory& memory) const {
  for (uint64_t i = 0; i < config_.num_elements; ++i) {
    memory.Write64(kDataRegionBase + i * 8, values_[i]);
  }
}

ContextSetup ArrayScan::SetupFor(int index) const {
  // Tasks scan disjoint (modulo wraparound) windows.
  const uint64_t start =
      (static_cast<uint64_t>(index) * config_.elements_per_task) %
      (config_.num_elements - config_.elements_per_task + 1);
  const uint64_t cursor = kDataRegionBase + start * 8;
  const uint64_t count = config_.elements_per_task;
  const uint64_t result = ResultAddr(index);
  return [cursor, count, result](sim::CpuContext& ctx) {
    ctx.regs[kRegCursor] = cursor;
    ctx.regs[kRegCount] = count;
    ctx.regs[kRegAcc] = 0;
    ctx.regs[kRegResult] = result;
  };
}

uint64_t ArrayScan::ExpectedResult(int index) const {
  const uint64_t start =
      (static_cast<uint64_t>(index) * config_.elements_per_task) %
      (config_.num_elements - config_.elements_per_task + 1);
  uint64_t acc = 0;
  for (uint64_t i = 0; i < config_.elements_per_task; ++i) {
    acc += values_[start + i];
  }
  return acc;
}

}  // namespace yieldhide::workloads
