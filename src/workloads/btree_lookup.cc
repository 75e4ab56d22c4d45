#include "src/workloads/btree_lookup.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/isa/builder.h"

namespace yieldhide::workloads {

namespace {
constexpr isa::Reg kRegCursor = 1;  // lookup-key cursor
constexpr isa::Reg kRegCount = 2;   // lookups remaining
constexpr isa::Reg kRegRoot = 3;    // root node address
constexpr isa::Reg kRegKey = 5;     // search key
constexpr isa::Reg kRegNode = 6;    // current node address
constexpr isa::Reg kRegNodeKey = 7;
constexpr isa::Reg kRegAcc = 8;
constexpr isa::Reg kRegResult = 9;
constexpr isa::Reg kRegVal = 10;
}  // namespace

uint64_t BtreeLookup::BuildSubtree(const std::vector<uint64_t>& sorted_keys, uint64_t lo,
                                   uint64_t hi, std::vector<uint64_t>& scattered_slots,
                                   uint64_t& next_slot) {
  if (lo >= hi) {
    return 0;
  }
  const uint64_t mid = lo + (hi - lo) / 2;
  const uint64_t slot = scattered_slots[next_slot++];
  node_key_[slot] = sorted_keys[mid];
  node_value_[slot] = sorted_keys[mid] & 0xffff;
  node_left_[slot] = BuildSubtree(sorted_keys, lo, mid, scattered_slots, next_slot);
  node_right_[slot] = BuildSubtree(sorted_keys, mid + 1, hi, scattered_slots, next_slot);
  return NodeAddr(slot);
}

Result<BtreeLookup> BtreeLookup::Make(const Config& config) {
  if (config.num_keys < 2) {
    return InvalidArgumentError("btree needs at least 2 keys");
  }
  BtreeLookup workload;
  workload.config_ = config;

  Rng rng(config.seed);
  // Distinct odd keys, sorted (even keys are reserved for guaranteed misses).
  std::vector<uint64_t> keys(config.num_keys);
  for (uint64_t i = 0; i < config.num_keys; ++i) {
    keys[i] = (i + 1) * 2 + 1;
  }

  // Random slot assignment scatters tree levels through memory.
  std::vector<uint64_t> slots(config.num_keys);
  for (uint64_t i = 0; i < config.num_keys; ++i) {
    slots[i] = i;
  }
  for (uint64_t i = config.num_keys - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.NextBelow(i + 1)]);
  }

  workload.node_key_.assign(config.num_keys, 0);
  workload.node_value_.assign(config.num_keys, 0);
  workload.node_left_.assign(config.num_keys, 0);
  workload.node_right_.assign(config.num_keys, 0);
  uint64_t next_slot = 0;
  workload.root_addr_ =
      workload.BuildSubtree(keys, 0, config.num_keys, slots, next_slot);

  workload.task_lookups_.resize(config.num_tasks);
  for (uint64_t task = 0; task < config.num_tasks; ++task) {
    auto& lookups = workload.task_lookups_[task];
    lookups.reserve(config.lookups_per_task);
    for (uint64_t i = 0; i < config.lookups_per_task; ++i) {
      if (rng.NextBool(config.hit_fraction)) {
        lookups.push_back(keys[rng.NextBelow(keys.size())]);
      } else {
        lookups.push_back(rng.NextBelow(config.num_keys * 2) * 2);  // even: absent
      }
    }
  }

  isa::ProgramBuilder builder("btree_lookup");
  auto kloop = builder.NewLabel();
  auto descend = builder.NewLabel();
  auto go_left = builder.NewLabel();
  auto hit = builder.NewLabel();
  auto next = builder.NewLabel();

  builder.Bind(kloop);
  builder.Load(kRegKey, kRegCursor, 0);
  builder.Mov(kRegNode, kRegRoot);
  builder.Bind(descend);
  builder.Beq(kRegNode, 0, next);              // null: absent
  workload.node_key_load_addr_ = builder.next_address();
  builder.Load(kRegNodeKey, kRegNode, 0);      // node key  <-- killer load
  builder.Beq(kRegNodeKey, kRegKey, hit);
  builder.Blt(kRegKey, kRegNodeKey, go_left);
  builder.Load(kRegNode, kRegNode, 24);        // right child (same line)
  builder.Jmp(descend);
  builder.Bind(go_left);
  builder.Load(kRegNode, kRegNode, 16);        // left child (same line)
  builder.Jmp(descend);
  builder.Bind(hit);
  builder.Load(kRegVal, kRegNode, 8);
  builder.Add(kRegAcc, kRegAcc, kRegVal);
  builder.Bind(next);
  builder.Addi(kRegCursor, kRegCursor, 8);
  builder.Addi(kRegCount, kRegCount, -1);
  builder.Bne(kRegCount, 0, kloop);
  builder.Store(kRegResult, 0, kRegAcc);
  builder.Halt();
  YH_ASSIGN_OR_RETURN(workload.program_, std::move(builder).Build());
  return workload;
}

void BtreeLookup::WriteImage(sim::SparseMemory& memory) const {
  for (uint64_t slot = 0; slot < config_.num_keys; ++slot) {
    if (node_key_[slot] == 0) {
      continue;
    }
    const uint64_t addr = NodeAddr(slot);
    memory.Write64(addr + 0, node_key_[slot]);
    memory.Write64(addr + 8, node_value_[slot]);
    memory.Write64(addr + 16, node_left_[slot]);
    memory.Write64(addr + 24, node_right_[slot]);
  }
  for (size_t task = 0; task < task_lookups_.size(); ++task) {
    const uint64_t base = LookupAddr(static_cast<int>(task));
    for (size_t i = 0; i < task_lookups_[task].size(); ++i) {
      memory.Write64(base + i * 8, task_lookups_[task][i]);
    }
  }
}

ContextSetup BtreeLookup::SetupFor(int index) const {
  const uint64_t cursor = LookupAddr(index % static_cast<int>(config_.num_tasks));
  const uint64_t count = config_.lookups_per_task;
  const uint64_t root = root_addr_;
  const uint64_t result = ResultAddr(index);
  return [cursor, count, root, result](sim::CpuContext& ctx) {
    ctx.regs[kRegCursor] = cursor;
    ctx.regs[kRegCount] = count;
    ctx.regs[kRegRoot] = root;
    ctx.regs[kRegAcc] = 0;
    ctx.regs[kRegResult] = result;
  };
}

uint64_t BtreeLookup::ExpectedResult(int index) const {
  const auto& lookups = task_lookups_[index % static_cast<int>(config_.num_tasks)];
  uint64_t acc = 0;
  for (uint64_t key : lookups) {
    uint64_t addr = root_addr_;
    while (addr != 0) {
      const uint64_t slot = (addr - kDataRegionBase - 64) / 32;
      if (node_key_[slot] == key) {
        acc += node_value_[slot];
        break;
      }
      addr = key < node_key_[slot] ? node_left_[slot] : node_right_[slot];
    }
  }
  return acc;
}

}  // namespace yieldhide::workloads
