#include "src/workloads/hash_probe.h"

#include "src/common/rng.h"
#include "src/isa/builder.h"
#include "src/workloads/zipf.h"

namespace yieldhide::workloads {

namespace {
constexpr uint64_t kHashPrime = 0x9e3779b97f4a7c15ull;
// Registers.
constexpr isa::Reg kRegKeys = 1;     // key cursor
constexpr isa::Reg kRegCount = 2;    // keys remaining
constexpr isa::Reg kRegTable = 3;    // table base
constexpr isa::Reg kRegMask = 4;     // bucket mask
constexpr isa::Reg kRegKey = 5;      // current key
constexpr isa::Reg kRegBucket = 6;   // bucket index
constexpr isa::Reg kRegSlot = 7;     // slot byte address
constexpr isa::Reg kRegAcc = 8;      // value accumulator
constexpr isa::Reg kRegResult = 9;   // result slot address
constexpr isa::Reg kRegProbe = 10;   // probed key
constexpr isa::Reg kRegVal = 11;     // matched value
}  // namespace

uint64_t HashProbe::HashOf(uint64_t key) const {
  return (key * kHashPrime) >> (64 - config_.buckets_log2);
}

Result<HashProbe> HashProbe::Make(const Config& config) {
  if (config.buckets_log2 < 4 || config.buckets_log2 > 30) {
    return InvalidArgumentError("buckets_log2 out of range [4,30]");
  }
  if (config.fill_factor <= 0.0 || config.fill_factor >= 0.95) {
    return InvalidArgumentError("fill_factor out of range (0, 0.95)");
  }
  HashProbe workload;
  workload.config_ = config;
  const uint64_t buckets = workload.num_buckets();

  // Build the table on the host (insertion mirrors the probe loop's linear
  // probing so expected results can be computed exactly).
  Rng rng(config.seed);
  workload.table_keys_.assign(buckets, 0);
  workload.table_values_.assign(buckets, 0);
  const uint64_t to_insert =
      static_cast<uint64_t>(config.fill_factor * static_cast<double>(buckets));
  std::vector<uint64_t> inserted_keys;
  inserted_keys.reserve(to_insert);
  for (uint64_t i = 0; i < to_insert; ++i) {
    // Nonzero, distinct-ish keys. Zero marks an empty bucket.
    const uint64_t key = (rng.Next() | 1) & ~(1ull << 63);
    uint64_t bucket = workload.HashOf(key);
    while (workload.table_keys_[bucket] != 0) {
      if (workload.table_keys_[bucket] == key) {
        break;
      }
      bucket = (bucket + 1) & (buckets - 1);
    }
    if (workload.table_keys_[bucket] == key) {
      continue;  // duplicate; skip
    }
    workload.table_keys_[bucket] = key;
    workload.table_values_[bucket] = rng.Next() & 0xffff;
    inserted_keys.push_back(key);
  }
  if (inserted_keys.empty()) {
    return InternalError("hash table construction inserted no keys");
  }

  // Pregenerate per-task key streams.
  workload.task_keys_.resize(config.num_tasks);
  ZipfianGenerator zipf(inserted_keys.size(), config.zipf_theta <= 0.0 ? 0.01
                                                                       : config.zipf_theta,
                        config.seed ^ 0xabcdef);
  for (uint64_t task = 0; task < config.num_tasks; ++task) {
    auto& keys = workload.task_keys_[task];
    keys.reserve(config.keys_per_task);
    for (uint64_t i = 0; i < config.keys_per_task; ++i) {
      if (rng.NextBool(config.hit_fraction)) {
        const uint64_t pick = config.zipf_theta > 0.0
                                  ? zipf.Next() % inserted_keys.size()
                                  : rng.NextBelow(inserted_keys.size());
        keys.push_back(inserted_keys[pick]);
      } else {
        // Absent key (even => never inserted, since inserted keys are odd).
        keys.push_back((rng.Next() & ~1ull) | 2);
      }
    }
  }

  // The probe program.
  isa::ProgramBuilder builder("hash_probe");
  auto kloop = builder.NewLabel();
  auto probe = builder.NewLabel();
  auto found = builder.NewLabel();
  auto miss = builder.NewLabel();
  auto done = builder.NewLabel();

  builder.Bind(kloop);
  builder.Load(kRegKey, kRegKeys, 0);        // next probe key (sequential)
  builder.Muli(kRegBucket, kRegKey, static_cast<int64_t>(kHashPrime));
  builder.Shri(kRegBucket, kRegBucket, 64 - static_cast<int64_t>(config.buckets_log2));
  builder.Bind(probe);
  builder.Shli(kRegSlot, kRegBucket, 4);     // *16 bytes per bucket
  builder.Add(kRegSlot, kRegSlot, kRegTable);
  workload.bucket_load_addr_ = builder.next_address();
  builder.Load(kRegProbe, kRegSlot, 0);      // bucket key  <-- killer load
  builder.Beq(kRegProbe, kRegKey, found);
  builder.Beq(kRegProbe, 0, miss);           // empty bucket: absent
  builder.Addi(kRegBucket, kRegBucket, 1);
  builder.And(kRegBucket, kRegBucket, kRegMask);
  builder.Jmp(probe);
  builder.Bind(found);
  builder.Load(kRegVal, kRegSlot, 8);        // value (same line: L1 hit)
  builder.Add(kRegAcc, kRegAcc, kRegVal);
  builder.Bind(miss);
  builder.Addi(kRegKeys, kRegKeys, 8);
  builder.Addi(kRegCount, kRegCount, -1);
  builder.Bne(kRegCount, 0, kloop);
  builder.Jmp(done);
  builder.Bind(done);
  builder.Store(kRegResult, 0, kRegAcc);
  builder.Halt();
  YH_ASSIGN_OR_RETURN(workload.program_, std::move(builder).Build());
  return workload;
}

void HashProbe::WriteImage(sim::SparseMemory& memory) const {
  for (uint64_t bucket = 0; bucket < num_buckets(); ++bucket) {
    if (table_keys_[bucket] != 0) {
      memory.Write64(BucketAddr(bucket) + 0, table_keys_[bucket]);
      memory.Write64(BucketAddr(bucket) + 8, table_values_[bucket]);
    }
  }
  for (size_t task = 0; task < task_keys_.size(); ++task) {
    const uint64_t base = KeysAddr(static_cast<int>(task));
    for (size_t i = 0; i < task_keys_[task].size(); ++i) {
      memory.Write64(base + i * 8, task_keys_[task][i]);
    }
  }
}

ContextSetup HashProbe::SetupFor(int index) const {
  const uint64_t keys = KeysAddr(index % static_cast<int>(config_.num_tasks));
  const uint64_t count = config_.keys_per_task;
  const uint64_t table = kDataRegionBase;
  const uint64_t mask = num_buckets() - 1;
  const uint64_t result = ResultAddr(index);
  return [keys, count, table, mask, result](sim::CpuContext& ctx) {
    ctx.regs[kRegKeys] = keys;
    ctx.regs[kRegCount] = count;
    ctx.regs[kRegTable] = table;
    ctx.regs[kRegMask] = mask;
    ctx.regs[kRegAcc] = 0;
    ctx.regs[kRegResult] = result;
  };
}

uint64_t HashProbe::ExpectedResult(int index) const {
  const auto& keys = task_keys_[index % static_cast<int>(config_.num_tasks)];
  uint64_t acc = 0;
  const uint64_t mask = num_buckets() - 1;
  for (uint64_t key : keys) {
    uint64_t bucket = HashOf(key);
    while (true) {
      if (table_keys_[bucket] == key) {
        acc += table_values_[bucket];
        break;
      }
      if (table_keys_[bucket] == 0) {
        break;
      }
      bucket = (bucket + 1) & mask;
    }
  }
  return acc;
}

}  // namespace yieldhide::workloads
