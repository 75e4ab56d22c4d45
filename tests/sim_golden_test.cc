// Golden values for the simulated plane. Each scenario runs a small fixed
// program on the simulator and compares every counter it produces — total
// cycles, every MemoryHierarchy::Stats and Cache::Stats field, and per-task
// latencies — against constants recorded from the array-of-structs cache and
// hash-map page table that preceded the current layouts.
//
// The simulator is deterministic, so host-side optimizations of src/sim
// (data layout, lookup structures, early exits) must leave every value here
// unchanged. A failure means the simulated machine itself changed; if that
// is intended, re-record the constants and say so in the change log.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/isa/assembler.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
#include "src/sim/executor.h"
#include "src/sim/smt_core.h"
#include "src/workloads/array_scan.h"
#include "src/workloads/btree_lookup.h"
#include "src/workloads/hash_probe.h"
#include "src/workloads/phased_chase.h"
#include "src/workloads/pointer_chase.h"
#include "src/workloads/skiplist_lookup.h"

namespace yieldhide {
namespace {

using Snapshot = std::vector<std::pair<std::string, uint64_t>>;
using Expected = std::initializer_list<std::pair<const char*, uint64_t>>;

isa::Program Asm(const std::string& source) {
  auto program = isa::Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// Writes a pointer ring of `lines` slots `spacing` bytes apart at `base`;
// slot i points to slot (i + step) % lines.
void WriteRing(sim::Machine& machine, uint64_t base, uint64_t lines, uint64_t step,
               uint64_t spacing = 64) {
  for (uint64_t i = 0; i < lines; ++i) {
    machine.memory().Write64(base + i * spacing, base + ((i + step) % lines) * spacing);
  }
}

void AddCache(Snapshot& snap, const std::string& name, const sim::Cache& cache) {
  const sim::Cache::Stats& s = cache.stats();
  snap.emplace_back(name + ".lookups", s.lookups);
  snap.emplace_back(name + ".hits", s.hits);
  snap.emplace_back(name + ".installs", s.installs);
  snap.emplace_back(name + ".evictions", s.evictions);
}

void AddHierarchy(Snapshot& snap, const sim::MemoryHierarchy& hierarchy) {
  const sim::MemoryHierarchy::Stats& s = hierarchy.stats();
  snap.emplace_back("loads", s.loads);
  snap.emplace_back("l1_hits", s.l1_hits);
  snap.emplace_back("l2_hits", s.l2_hits);
  snap.emplace_back("l3_hits", s.l3_hits);
  snap.emplace_back("dram_accesses", s.dram_accesses);
  snap.emplace_back("inflight_merges", s.inflight_merges);
  snap.emplace_back("stores", s.stores);
  snap.emplace_back("store_misses", s.store_misses);
  snap.emplace_back("prefetches_issued", s.prefetches_issued);
  snap.emplace_back("prefetches_useless", s.prefetches_useless);
  snap.emplace_back("prefetches_dropped", s.prefetches_dropped);
  snap.emplace_back("hw_prefetches", s.hw_prefetches);
  snap.emplace_back("inflight_fills", hierarchy.inflight_fills());
  AddCache(snap, "l1", hierarchy.l1());
  AddCache(snap, "l2", hierarchy.l2());
  AddCache(snap, "l3", hierarchy.l3());
}

void AddRun(Snapshot& snap, const runtime::RunReport& run) {
  snap.emplace_back("total_cycles", run.total_cycles);
  snap.emplace_back("instructions", run.instructions);
  snap.emplace_back("issue_cycles", run.issue_cycles);
  snap.emplace_back("stall_cycles", run.stall_cycles);
  snap.emplace_back("switch_cycles", run.switch_cycles);
  snap.emplace_back("yields", run.yields);
  for (size_t i = 0; i < run.completions.size(); ++i) {
    snap.emplace_back("latency" + std::to_string(i), run.completions[i].LatencyCycles());
  }
}

void ExpectSnapshot(const Snapshot& actual, Expected expected) {
  ASSERT_EQ(actual.size(), expected.size());
  size_t i = 0;
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(actual[i].first, name);
    EXPECT_EQ(actual[i].second, value) << name;
    ++i;
  }
}

// Instrumented chase: prefetch+yield before the dependent load.
constexpr char kInstrumentedChase[] = R"(
  loop:
    prefetch [r1+0]
    yield
    load r1, [r1+0]
    addi r2, r2, -1
    bne r2, r0, loop
    store [r9+0], r1
    halt
)";

constexpr char kPlainChase[] = R"(
  loop:
    load r1, [r1+0]
    addi r2, r2, -1
    bne r2, r0, loop
    store [r9+0], r1
    halt
)";

Snapshot RingChaseRoundRobin(const sim::MachineConfig& config, uint64_t lines,
                             uint64_t step, uint64_t spacing, uint64_t hops) {
  constexpr int kGroup = 16;
  sim::Machine machine(config);
  WriteRing(machine, 0x100000, lines, step, spacing);
  auto binary = runtime::AnnotateManualYields(Asm(kInstrumentedChase), machine.config().cost);
  runtime::RoundRobinScheduler sched(&binary, &machine);
  for (int i = 0; i < kGroup; ++i) {
    sched.AddCoroutine([=](sim::CpuContext& ctx) {
      ctx.regs[1] = 0x100000 + (static_cast<uint64_t>(i) * 353 % lines) * spacing;
      ctx.regs[2] = hops;
      ctx.regs[9] = 0x40000000 + static_cast<uint64_t>(i) * 64;
    });
  }
  auto report = sched.Run(10'000'000);
  EXPECT_TRUE(report.ok()) << report.status();
  Snapshot snap;
  AddRun(snap, report.value());
  AddHierarchy(snap, machine.hierarchy());
  snap.emplace_back("resident_pages", machine.memory().resident_pages());
  return snap;
}

TEST(SimGoldenTest, RoundRobinRingChaseSmallTest) {
  ExpectSnapshot(RingChaseRoundRobin(sim::MachineConfig::SmallTest(), 4096, 1021, 64, 300), {
      {"total_cycles", 167082},
      {"instructions", 24032},
      {"issue_cycles", 33632},
      {"stall_cycles", 18070},
      {"switch_cycles", 115380},
      {"yields", 4800},
      {"latency0", 166632},
      {"latency1", 166662},
      {"latency2", 166692},
      {"latency3", 166722},
      {"latency4", 166752},
      {"latency5", 166782},
      {"latency6", 166812},
      {"latency7", 166842},
      {"latency8", 166872},
      {"latency9", 166902},
      {"latency10", 166932},
      {"latency11", 166962},
      {"latency12", 166992},
      {"latency13", 167022},
      {"latency14", 167052},
      {"latency15", 167082},
      {"loads", 4800},
      {"l1_hits", 2993},
      {"l2_hits", 1807},
      {"l3_hits", 0},
      {"dram_accesses", 0},
      {"inflight_merges", 0},
      {"stores", 16},
      {"store_misses", 16},
      {"prefetches_issued", 4800},
      {"prefetches_useless", 0},
      {"prefetches_dropped", 0},
      {"hw_prefetches", 0},
      {"inflight_fills", 0},
      {"l1.lookups", 4816},
      {"l1.hits", 2993},
      {"l1.installs", 6623},
      {"l1.evictions", 6607},
      {"l2.lookups", 1807},
      {"l2.hits", 1807},
      {"l2.installs", 4816},
      {"l2.evictions", 4752},
      {"l3.lookups", 0},
      {"l3.hits", 0},
      {"l3.installs", 4816},
      {"l3.evictions", 4560},
      {"resident_pages", 65},
  });
}

TEST(SimGoldenTest, RoundRobinRingChaseSkylakeLike) {
  // 512 slots 128 KiB apart fall into one L1 set, one L2 set and four L3
  // sets, so every 16-way level evicts while some revisits still hit L3.
  ExpectSnapshot(
      RingChaseRoundRobin(sim::MachineConfig::SkylakeLike(), 512, 197, 128 * 1024, 200), {
      {"total_cycles", 220722},
      {"instructions", 16032},
      {"issue_cycles", 22432},
      {"stall_cycles", 121310},
      {"switch_cycles", 76980},
      {"yields", 3200},
      {"latency0", 219936},
      {"latency1", 219994},
      {"latency2", 220052},
      {"latency3", 220110},
      {"latency4", 220168},
      {"latency5", 220226},
      {"latency6", 220284},
      {"latency7", 220342},
      {"latency8", 220400},
      {"latency9", 220458},
      {"latency10", 220516},
      {"latency11", 220574},
      {"latency12", 220632},
      {"latency13", 220662},
      {"latency14", 220692},
      {"latency15", 220722},
      {"loads", 3200},
      {"l1_hits", 1},
      {"l2_hits", 9},
      {"l3_hits", 3190},
      {"dram_accesses", 0},
      {"inflight_merges", 0},
      {"stores", 16},
      {"store_misses", 16},
      {"prefetches_issued", 3200},
      {"prefetches_useless", 0},
      {"prefetches_dropped", 0},
      {"hw_prefetches", 0},
      {"inflight_fills", 0},
      {"l1.lookups", 3216},
      {"l1.hits", 1},
      {"l1.installs", 6415},
      {"l1.evictions", 6392},
      {"l2.lookups", 3199},
      {"l2.hits", 9},
      {"l2.installs", 6406},
      {"l2.evictions", 6375},
      {"l3.lookups", 3190},
      {"l3.hits", 3190},
      {"l3.installs", 3216},
      {"l3.evictions", 3137},
      {"resident_pages", 513},
  });
}

TEST(SimGoldenTest, ArrayScanNextLinePrefetcherSaturatedMshr) {
  // Two loads per iteration on consecutive lines trigger the next-line
  // prefetcher; six software prefetches ahead overflow the 4-entry MSHR,
  // so fills are dropped and DRAM misses degrade to instant installs.
  sim::MachineConfig config = sim::MachineConfig::SmallTest();
  config.hierarchy.enable_nextline_prefetcher = true;
  config.hierarchy.mshr_entries = 4;
  sim::Machine machine(config);
  constexpr uint64_t kBase = 0x200000;
  constexpr uint64_t kIterations = 2000;
  for (uint64_t i = 0; i < kIterations * 16; ++i) {
    machine.memory().Write64(kBase + i * 8, i * 2654435761u);
  }
  const isa::Program program = Asm(R"(
    loop:
      prefetch [r1+512]
      prefetch [r1+576]
      prefetch [r1+640]
      prefetch [r1+704]
      prefetch [r1+768]
      prefetch [r1+832]
      load r3, [r1+0]
      add r4, r4, r3
      load r3, [r1+64]
      add r4, r4, r3
      store [r1+8], r4
      addi r1, r1, 128
      addi r2, r2, -1
      bne r2, r0, loop
      halt
  )");
  sim::Executor executor(&program, &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(program.entry());
  ctx.regs[1] = kBase;
  ctx.regs[2] = kIterations;
  auto cycles = executor.RunToCompletion(ctx, 1'000'000);
  ASSERT_TRUE(cycles.ok()) << cycles.status();
  EXPECT_GT(machine.hierarchy().stats().prefetches_dropped, 0u);
  EXPECT_GT(machine.hierarchy().stats().hw_prefetches, 0u);

  Snapshot snap;
  snap.emplace_back("total_cycles", cycles.value());
  snap.emplace_back("sum", ctx.regs[4]);
  snap.emplace_back("stall_cycles", ctx.stall_cycles);
  snap.emplace_back("load_misses", ctx.load_misses);
  AddHierarchy(snap, machine.hierarchy());
  ExpectSnapshot(snap, {
      {"total_cycles", 232766},
      {"sum", 169841417731824000},
      {"stall_cycles", 192765},
      {"load_misses", 1539},
      {"loads", 4000},
      {"l1_hits", 2924},
      {"l2_hits", 307},
      {"l3_hits", 0},
      {"dram_accesses", 769},
      {"inflight_merges", 463},
      {"stores", 2000},
      {"store_misses", 0},
      {"prefetches_issued", 2923},
      {"prefetches_useless", 3696},
      {"prefetches_dropped", 5381},
      {"hw_prefetches", 619},
      {"inflight_fills", 2},
      {"l1.lookups", 5537},
      {"l1.hits", 4461},
      {"l1.installs", 4616},
      {"l1.evictions", 4600},
      {"l2.lookups", 1076},
      {"l2.hits", 307},
      {"l2.installs", 4309},
      {"l2.evictions", 3936},
      {"l3.lookups", 769},
      {"l3.hits", 0},
      {"l3.installs", 4309},
      {"l3.evictions", 3744},
  });
}

TEST(SimGoldenTest, MshrDrainOrderSetsLruStamps) {
  // Four prefetches to lines of one 2-way L1 set complete during the wait
  // loop, so one drain installs all four. The drain order decides which two
  // stay in L1, and so how the four loads after it hit: this pins the order
  // in which MemoryHierarchy drains completed fills.
  sim::Machine machine(sim::MachineConfig::SmallTest());
  for (uint64_t i = 0; i < 4096; ++i) {
    machine.memory().Write64(0x300000 + i * 8, i);
  }
  const isa::Program program = Asm(R"(
    loop:
      prefetch [r1+0]
      prefetch [r1+512]
      prefetch [r1+1024]
      prefetch [r1+1536]
      movi r5, 120
    wait:
      addi r5, r5, -1
      bne r5, r0, wait
      load r3, [r1+0]
      add r4, r4, r3
      load r3, [r1+512]
      add r4, r4, r3
      load r3, [r1+1024]
      add r4, r4, r3
      load r3, [r1+1536]
      add r4, r4, r3
      addi r1, r1, 64
      addi r2, r2, -1
      bne r2, r0, loop
      halt
  )");
  sim::Executor executor(&program, &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(program.entry());
  ctx.regs[1] = 0x300000;
  ctx.regs[2] = 64;
  auto cycles = executor.RunToCompletion(ctx, 1'000'000);
  ASSERT_TRUE(cycles.ok()) << cycles.status();

  Snapshot snap;
  snap.emplace_back("total_cycles", cycles.value());
  snap.emplace_back("sum", ctx.regs[4]);
  snap.emplace_back("stall_cycles", ctx.stall_cycles);
  AddHierarchy(snap, machine.hierarchy());
  ExpectSnapshot(snap, {
      {"total_cycles", 18993},
      {"sum", 89088},
      {"stall_cycles", 1840},
      {"loads", 256},
      {"l1_hits", 72},
      {"l2_hits", 184},
      {"l3_hits", 0},
      {"dram_accesses", 0},
      {"inflight_merges", 0},
      {"stores", 0},
      {"store_misses", 0},
      {"prefetches_issued", 144},
      {"prefetches_useless", 112},
      {"prefetches_dropped", 0},
      {"hw_prefetches", 0},
      {"inflight_fills", 0},
      {"l1.lookups", 256},
      {"l1.hits", 72},
      {"l1.installs", 328},
      {"l1.evictions", 312},
      {"l2.lookups", 184},
      {"l2.hits", 184},
      {"l2.installs", 144},
      {"l2.evictions", 24},
      {"l3.lookups", 0},
      {"l3.hits", 0},
      {"l3.installs", 144},
      {"l3.evictions", 0},
  });
}

TEST(SimGoldenTest, SmtCoreFourContexts) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  constexpr uint64_t kLines = 4096;
  WriteRing(machine, 0x100000, kLines, 1021);
  const isa::Program program = Asm(kPlainChase);
  sim::SmtCore core(&program, &machine);
  for (int i = 0; i < 4; ++i) {
    core.AddContext([i](sim::CpuContext& ctx) {
      ctx.regs[1] = 0x100000 + (static_cast<uint64_t>(i) * 997 % kLines) * 64;
      ctx.regs[2] = 250;
      ctx.regs[9] = 0x900000 + static_cast<uint64_t>(i) * 64;
    });
  }
  auto report = core.Run(1'000'000);
  ASSERT_TRUE(report.ok()) << report.status();

  Snapshot snap;
  snap.emplace_back("total_cycles", report->total_cycles);
  snap.emplace_back("issued_cycles", report->issued_cycles);
  snap.emplace_back("idle_cycles", report->idle_cycles);
  snap.emplace_back("total_instructions", report->total_instructions);
  for (size_t i = 0; i < report->context_finish_cycles.size(); ++i) {
    snap.emplace_back("finish" + std::to_string(i), report->context_finish_cycles[i]);
    snap.emplace_back("stall" + std::to_string(i), core.context(static_cast<int>(i)).stall_cycles);
  }
  AddHierarchy(snap, machine.hierarchy());
  ExpectSnapshot(snap, {
      {"total_cycles", 29550},
      {"issued_cycles", 6008},
      {"idle_cycles", 23542},
      {"total_instructions", 3008},
      {"finish0", 24862},
      {"stall0", 22474},
      {"finish1", 25807},
      {"stall1", 23621},
      {"finish2", 27738},
      {"stall2", 25315},
      {"finish3", 29550},
      {"stall3", 27375},
      {"loads", 1000},
      {"l1_hits", 674},
      {"l2_hits", 49},
      {"l3_hits", 0},
      {"dram_accesses", 277},
      {"inflight_merges", 232},
      {"stores", 4},
      {"store_misses", 4},
      {"prefetches_issued", 0},
      {"prefetches_useless", 0},
      {"prefetches_dropped", 0},
      {"hw_prefetches", 0},
      {"inflight_fills", 0},
      {"l1.lookups", 772},
      {"l1.hits", 442},
      {"l1.installs", 330},
      {"l1.evictions", 314},
      {"l2.lookups", 326},
      {"l2.hits", 49},
      {"l2.installs", 281},
      {"l2.evictions", 217},
      {"l3.lookups", 277},
      {"l3.hits", 0},
      {"l3.installs", 281},
      {"l3.evictions", 25},
  });
}

TEST(SimGoldenTest, DualModeWithChaseScavengers) {
  constexpr uint64_t kLines = 4096;
  sim::Machine machine(sim::MachineConfig::SmallTest());
  WriteRing(machine, 0x100000, kLines, 1021);
  auto primary = runtime::AnnotateManualYields(Asm(kInstrumentedChase), machine.config().cost);
  for (auto& [addr, info] : primary.yields) {
    info.kind = instrument::YieldKind::kPrimary;
  }
  auto scavenger = runtime::AnnotateManualYields(Asm(kInstrumentedChase), machine.config().cost);
  for (auto& [addr, info] : scavenger.yields) {
    info.kind = instrument::YieldKind::kPrimary;
  }
  runtime::DualModeConfig config;
  config.max_scavengers = 12;
  runtime::DualModeScheduler sched(&primary, &scavenger, &machine, config);
  for (int i = 0; i < 6; ++i) {
    sched.AddPrimaryTask([i](sim::CpuContext& ctx) {
      ctx.regs[1] = 0x100000 + (static_cast<uint64_t>(i) * 353 % kLines) * 64;
      ctx.regs[2] = 120;
      ctx.regs[9] = 0x900000 + static_cast<uint64_t>(i) * 64;
    });
  }
  auto counter = std::make_shared<int>(0);
  sched.SetScavengerFactory(
      [counter]() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        const int i = (*counter)++;
        if (i >= 40) {
          return std::nullopt;
        }
        return [i](sim::CpuContext& ctx) {
          ctx.regs[1] = 0x100000 + ((2000 + static_cast<uint64_t>(i) * 41) % kLines) * 64;
          ctx.regs[2] = 150;
          ctx.regs[9] = 0xa00000 + static_cast<uint64_t>(i) * 64;
        };
      });
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  Snapshot snap;
  AddRun(snap, report->run);
  snap.emplace_back("primary_issue_cycles", report->primary_issue_cycles);
  snap.emplace_back("primary_stall_cycles", report->primary_stall_cycles);
  snap.emplace_back("scavenger_issue_cycles", report->scavenger_issue_cycles);
  snap.emplace_back("scavengers_spawned", report->scavengers_spawned);
  snap.emplace_back("chains", report->chains);
  snap.emplace_back("bursts", report->bursts);
  snap.emplace_back("burst_busy_cycles", report->burst_busy_cycles);
  snap.emplace_back("bursts_starved", report->bursts_starved);
  snap.emplace_back("sites_quarantined", report->sites_quarantined);
  snap.emplace_back("quarantined_skips", report->quarantined_skips);
  AddHierarchy(snap, machine.hierarchy());
  ExpectSnapshot(snap, {
      {"total_cycles", 247347},
      {"instructions", 33692},
      {"issue_cycles", 47132},
      {"stall_cycles", 38631},
      {"switch_cycles", 161584},
      {"yields", 6720},
      {"latency0", 45142},
      {"latency1", 45166},
      {"latency2", 45066},
      {"latency3", 45092},
      {"latency4", 42159},
      {"latency5", 24722},
      {"primary_issue_cycles", 5052},
      {"primary_stall_cycles", 28346},
      {"scavenger_issue_cycles", 42080},
      {"scavengers_spawned", 40},
      {"chains", 5472},
      {"bursts", 720},
      {"burst_busy_cycles", 196365},
      {"bursts_starved", 153},
      {"sites_quarantined", 0},
      {"quarantined_skips", 0},
      {"loads", 6720},
      {"l1_hits", 6515},
      {"l2_hits", 205},
      {"l3_hits", 0},
      {"dram_accesses", 0},
      {"inflight_merges", 387},
      {"stores", 46},
      {"store_misses", 46},
      {"prefetches_issued", 6720},
      {"prefetches_useless", 0},
      {"prefetches_dropped", 0},
      {"hw_prefetches", 0},
      {"inflight_fills", 0},
      {"l1.lookups", 6379},
      {"l1.hits", 6128},
      {"l1.installs", 6971},
      {"l1.evictions", 6955},
      {"l2.lookups", 205},
      {"l2.hits", 205},
      {"l2.installs", 6766},
      {"l2.evictions", 6702},
      {"l3.lookups", 0},
      {"l3.hits", 0},
      {"l3.installs", 6766},
      {"l3.evictions", 6510},
  });
}

// --- A reset machine runs like a fresh one ---------------------------------------

// Runs tasks 0..tasks-1 of `workload` round-robin on `machine`, whose memory
// already holds the image, and checks every task's result.
Snapshot RunWorkload(const workloads::SimWorkload& workload, sim::Machine& machine,
                     int tasks) {
  auto binary = runtime::AnnotateManualYields(workload.program(), machine.config().cost);
  runtime::RoundRobinScheduler sched(&binary, &machine);
  for (int i = 0; i < tasks; ++i) {
    sched.AddCoroutine(workload.SetupFor(i));
  }
  auto report = sched.Run(50'000'000);
  EXPECT_TRUE(report.ok()) << report.status();
  for (int i = 0; i < tasks; ++i) {
    EXPECT_EQ(workload.ReadResult(machine.memory(), i), workload.ExpectedResult(i)) << i;
  }
  Snapshot snap;
  AddRun(snap, report.value());
  AddHierarchy(snap, machine.hierarchy());
  return snap;
}

// A machine after ResetMicroarchState, a second machine loading the same
// workload's image, and a machine built just after one that ran the workload
// was destroyed must give a fresh machine's cycles, per-task latencies and
// counters. The last one takes the destroyed machine's tag arrays, which its
// destructor reset. The footprints differ so that a reset takes both of
// Cache::Reset's paths: the chase touches most L3 sets (a full refill), the
// kernels few (only the touched sets).
TEST(SimGoldenTest, ResetMachineRunsLikeAFreshOne) {
  std::vector<std::pair<std::unique_ptr<workloads::SimWorkload>, int>> cases;
  workloads::PointerChase::Config chase;
  chase.num_nodes = 1 << 14;
  chase.steps_per_task = 512;
  chase.manual_prefetch_yield = true;
  cases.emplace_back(std::make_unique<workloads::PointerChase>(
                         workloads::PointerChase::Make(chase).value()), 16);
  workloads::PhasedChase::Config phased;
  phased.num_nodes = 1 << 12;
  phased.steps_per_task = 256;
  cases.emplace_back(std::make_unique<workloads::PhasedChase>(
                         workloads::PhasedChase::Make(phased).value()), 12);
  workloads::HashProbe::Config hash;
  hash.buckets_log2 = 12;
  hash.keys_per_task = 64;
  hash.num_tasks = 8;
  cases.emplace_back(std::make_unique<workloads::HashProbe>(
                         workloads::HashProbe::Make(hash).value()), 8);
  workloads::BtreeLookup::Config btree;
  btree.num_keys = 4096;
  btree.lookups_per_task = 64;
  btree.num_tasks = 8;
  cases.emplace_back(std::make_unique<workloads::BtreeLookup>(
                         workloads::BtreeLookup::Make(btree).value()), 8);
  workloads::SkiplistLookup::Config skiplist;
  skiplist.num_keys = 2048;
  skiplist.max_level = 8;
  skiplist.lookups_per_task = 32;
  skiplist.num_tasks = 8;
  cases.emplace_back(std::make_unique<workloads::SkiplistLookup>(
                         workloads::SkiplistLookup::Make(skiplist).value()), 8);
  workloads::ArrayScan::Config scan;
  scan.num_elements = 1 << 14;
  scan.elements_per_task = 1024;
  cases.emplace_back(std::make_unique<workloads::ArrayScan>(
                         workloads::ArrayScan::Make(scan).value()), 8);

  for (const auto& [workload, tasks] : cases) {
    SCOPED_TRACE(workload->program().name());
    sim::Machine machine(sim::MachineConfig::SkylakeLike());
    workload->InitMemory(machine.memory());
    const Snapshot fresh = RunWorkload(*workload, machine, tasks);
    EXPECT_GT(fresh.front().second, 0u);  // total_cycles

    machine.ResetMicroarchState();
    EXPECT_EQ(RunWorkload(*workload, machine, tasks), fresh);

    sim::Machine second(sim::MachineConfig::SkylakeLike());
    workload->InitMemory(second.memory());
    EXPECT_EQ(RunWorkload(*workload, second, tasks), fresh);

    {
      sim::Machine dropped(sim::MachineConfig::SkylakeLike());
      workload->InitMemory(dropped.memory());
      EXPECT_EQ(RunWorkload(*workload, dropped, tasks), fresh);
    }
    sim::Machine recycled(sim::MachineConfig::SkylakeLike());
    workload->InitMemory(recycled.memory());
    EXPECT_EQ(RunWorkload(*workload, recycled, tasks), fresh);
  }
}

TEST(SimGoldenTest, StoreToAPendingLineLeavesItsFillInTheMshr) {
  // A store to a line whose fill is still in flight misses L1 and installs
  // the line at once (write-allocate through the store buffer), but its MSHR
  // entry stays. The next load of the line merges with that fill and waits
  // for it, although L1 already holds the line. Pinned so that a change to
  // the MSHR moves it on purpose.
  sim::Machine machine(sim::MachineConfig::SmallTest());
  sim::MemoryHierarchy& h = machine.hierarchy();
  const uint64_t addr = 0x500000;
  ASSERT_TRUE(h.Prefetch(addr, 0));  // from DRAM: ready at cycle 200
  EXPECT_FALSE(h.AccessStore(addr, 50));
  EXPECT_EQ(h.ProbeLevel(addr), sim::HitLevel::kL1);
  EXPECT_EQ(h.inflight_fills(), 1u);

  const sim::AccessResult merged = h.AccessLoad(addr, 60);
  EXPECT_TRUE(merged.hit_inflight);
  EXPECT_EQ(merged.level, sim::HitLevel::kL1);
  EXPECT_EQ(merged.latency_cycles, 200u - 60u + 4u);  // remaining fill + L1
  EXPECT_EQ(h.inflight_fills(), 0u);

  const sim::AccessResult hit = h.AccessLoad(addr, 70);
  EXPECT_FALSE(hit.hit_inflight);
  EXPECT_EQ(hit.latency_cycles, 4u);

  Snapshot snap;
  AddHierarchy(snap, h);
  ExpectSnapshot(snap, {
      {"loads", 2},
      {"l1_hits", 2},
      {"l2_hits", 0},
      {"l3_hits", 0},
      {"dram_accesses", 0},
      {"inflight_merges", 1},
      {"stores", 1},
      {"store_misses", 1},
      {"prefetches_issued", 1},
      {"prefetches_useless", 0},
      {"prefetches_dropped", 0},
      {"hw_prefetches", 0},
      {"inflight_fills", 0},
      {"l1.lookups", 2},
      {"l1.hits", 1},
      {"l1.installs", 2},
      {"l1.evictions", 0},
      {"l2.lookups", 0},
      {"l2.hits", 0},
      {"l2.installs", 2},
      {"l2.evictions", 0},
      {"l3.lookups", 0},
      {"l3.hits", 0},
      {"l3.installs", 2},
      {"l3.evictions", 0},
  });
}

}  // namespace
}  // namespace yieldhide
