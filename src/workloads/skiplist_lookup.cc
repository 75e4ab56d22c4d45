#include "src/workloads/skiplist_lookup.h"

#include "src/common/rng.h"
#include "src/isa/builder.h"

namespace yieldhide::workloads {

namespace {
constexpr isa::Reg kRegCursor = 1;
constexpr isa::Reg kRegCount = 2;
constexpr isa::Reg kRegHead = 3;
constexpr isa::Reg kRegKey = 5;
constexpr isa::Reg kRegNode = 6;
constexpr isa::Reg kRegLevel = 7;
constexpr isa::Reg kRegAcc = 8;
constexpr isa::Reg kRegResult = 9;
constexpr isa::Reg kRegNext = 10;
constexpr isa::Reg kRegNextKey = 11;
constexpr isa::Reg kRegScratch = 12;
}  // namespace

Result<SkiplistLookup> SkiplistLookup::Make(const Config& config) {
  if (config.num_keys < 2) {
    return InvalidArgumentError("skiplist needs at least 2 keys");
  }
  if (config.max_level < 1 || config.max_level > 24) {
    return InvalidArgumentError("max_level out of range [1,24]");
  }
  SkiplistLookup workload;
  workload.config_ = config;

  Rng rng(config.seed);
  const uint64_t n = config.num_keys;
  const uint64_t head_slot_index = n;  // one extra slot for the head sentinel

  // Scattered slot assignment (slot array index i = i-th key in sorted order;
  // the head takes the last entry).
  std::vector<uint64_t> slots(n + 1);
  for (uint64_t i = 0; i <= n; ++i) {
    slots[i] = i;
  }
  for (uint64_t i = n; i > 0; --i) {
    std::swap(slots[i], slots[rng.NextBelow(i + 1)]);
  }

  workload.node_key_.assign(n + 1, 0);
  workload.node_value_.assign(n + 1, 0);
  workload.node_next_.assign(n + 1,
                             std::vector<uint64_t>(config.max_level, 0));

  // Geometric level per node (p = 1/2), capped at max_level.
  std::vector<int> levels(n);
  for (uint64_t i = 0; i < n; ++i) {
    int level = 1;
    while (level < config.max_level && rng.NextBool(0.5)) {
      ++level;
    }
    levels[i] = level;
  }

  const uint64_t head_slot = slots[head_slot_index];
  workload.node_key_[head_slot] = 0;  // below every real key (keys >= 2)

  // Link: for each lane, chain the head through every node tall enough.
  std::vector<uint64_t> last_slot_at_level(config.max_level, head_slot);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t slot = slots[i];
    workload.node_key_[slot] = (i + 1) * 2;  // sorted even keys
    workload.node_value_[slot] = ((i + 1) * 2) & 0xffff;
    for (int level = 0; level < levels[i]; ++level) {
      workload.node_next_[last_slot_at_level[level]][level] = workload.NodeAddr(slot);
      last_slot_at_level[level] = slot;
    }
  }

  // Per-task lookup streams: even keys hit, odd keys miss.
  workload.task_lookups_.resize(config.num_tasks);
  for (uint64_t task = 0; task < config.num_tasks; ++task) {
    auto& lookups = workload.task_lookups_[task];
    lookups.reserve(config.lookups_per_task);
    for (uint64_t i = 0; i < config.lookups_per_task; ++i) {
      if (rng.NextBool(config.hit_fraction)) {
        lookups.push_back((rng.NextBelow(n) + 1) * 2);
      } else {
        lookups.push_back(rng.NextBelow(n * 2) * 2 + 1);
      }
    }
  }

  // The search program (standard top-down skip-list descent).
  isa::ProgramBuilder builder("skiplist_lookup");
  auto kloop = builder.NewLabel();
  auto descend = builder.NewLabel();
  auto down = builder.NewLabel();
  auto check = builder.NewLabel();
  auto miss = builder.NewLabel();

  builder.Bind(kloop);
  builder.Load(kRegKey, kRegCursor, 0);
  builder.Mov(kRegNode, kRegHead);
  builder.Movi(kRegLevel, config.max_level - 1);
  builder.Bind(descend);
  builder.Muli(kRegScratch, kRegLevel, 8);
  builder.Add(kRegScratch, kRegScratch, kRegNode);
  builder.Load(kRegNext, kRegScratch, 16);          // cur->next[level]
  builder.Beq(kRegNext, 0, down);
  workload.next_load_addr_ = builder.next_address();
  builder.Load(kRegNextKey, kRegNext, 0);           // candidate key <- miss site
  builder.Bge(kRegNextKey, kRegKey, down);
  builder.Mov(kRegNode, kRegNext);                  // advance along the lane
  builder.Jmp(descend);
  builder.Bind(down);
  builder.Beq(kRegLevel, 0, check);
  builder.Addi(kRegLevel, kRegLevel, -1);
  builder.Jmp(descend);
  builder.Bind(check);
  builder.Load(kRegNext, kRegNode, 16);             // cur->next[0]
  builder.Beq(kRegNext, 0, miss);
  builder.Load(kRegNextKey, kRegNext, 0);
  builder.Bne(kRegNextKey, kRegKey, miss);
  builder.Load(kRegScratch, kRegNext, 8);           // value
  builder.Add(kRegAcc, kRegAcc, kRegScratch);
  builder.Bind(miss);
  builder.Addi(kRegCursor, kRegCursor, 8);
  builder.Addi(kRegCount, kRegCount, -1);
  builder.Bne(kRegCount, 0, kloop);
  builder.Store(kRegResult, 0, kRegAcc);
  builder.Halt();
  YH_ASSIGN_OR_RETURN(workload.program_, std::move(builder).Build());

  // Stash the head address for SetupFor via node 0's slot.
  workload.head_slot_ = head_slot;
  return workload;
}

void SkiplistLookup::WriteImage(sim::SparseMemory& memory) const {
  for (uint64_t slot = 0; slot < node_key_.size(); ++slot) {
    const uint64_t addr = NodeAddr(slot);
    memory.Write64(addr + 0, node_key_[slot]);
    memory.Write64(addr + 8, node_value_[slot]);
    for (int level = 0; level < config_.max_level; ++level) {
      memory.Write64(addr + 16 + 8 * static_cast<uint64_t>(level),
                     node_next_[slot][level]);
    }
  }
  for (size_t task = 0; task < task_lookups_.size(); ++task) {
    const uint64_t base = LookupAddr(static_cast<int>(task));
    for (size_t i = 0; i < task_lookups_[task].size(); ++i) {
      memory.Write64(base + i * 8, task_lookups_[task][i]);
    }
  }
}

ContextSetup SkiplistLookup::SetupFor(int index) const {
  const uint64_t cursor = LookupAddr(index % static_cast<int>(config_.num_tasks));
  const uint64_t count = config_.lookups_per_task;
  const uint64_t head = NodeAddr(head_slot_);
  const uint64_t result = ResultAddr(index);
  return [cursor, count, head, result](sim::CpuContext& ctx) {
    ctx.regs[kRegCursor] = cursor;
    ctx.regs[kRegCount] = count;
    ctx.regs[kRegHead] = head;
    ctx.regs[kRegAcc] = 0;
    ctx.regs[kRegResult] = result;
  };
}

uint64_t SkiplistLookup::ExpectedResult(int index) const {
  const auto& lookups = task_lookups_[index % static_cast<int>(config_.num_tasks)];
  uint64_t acc = 0;
  auto slot_of = [&](uint64_t addr) {
    return (addr - kDataRegionBase - 64) / NodeBytes();
  };
  for (uint64_t key : lookups) {
    uint64_t cur = head_slot_;
    for (int level = config_.max_level - 1; level >= 0; --level) {
      while (true) {
        const uint64_t next_addr = node_next_[cur][level];
        if (next_addr == 0 || node_key_[slot_of(next_addr)] >= key) {
          break;
        }
        cur = slot_of(next_addr);
      }
    }
    const uint64_t candidate = node_next_[cur][0];
    if (candidate != 0 && node_key_[slot_of(candidate)] == key) {
      acc += node_value_[slot_of(candidate)];
    }
  }
  return acc;
}

}  // namespace yieldhide::workloads
