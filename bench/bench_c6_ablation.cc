// C6 — instrumentation-optimization ablation (§3.2): yield coalescing and
// liveness-minimized register saves.
//
// Workload: a gather kernel that first materializes four scattered-slot
// addresses and then performs four ADJACENT INDEPENDENT loads — exactly the
// shape coalescing targets ("issue prefetches all together and instrument
// only a single yield to amortize the switching overhead").
//
// Variants: full optimization / no coalescing / save-all registers / neither,
// swept across coroutine group sizes. Expected shape: liveness minimization
// helps everywhere (every switch gets cheaper). Coalescing trades one switch
// per load for 4-wide memory-level parallelism per coroutine: at SMALL groups
// it wins outright (4 outstanding fills per coroutine cover the miss with a
// quarter of the coroutines); at large groups the per-coroutine MLP no longer
// fits in the MSHR alongside everyone else's and plain per-load yields (which
// stagger fills one at a time) catch up — a real microarchitectural
// interaction the gain/cost model's amortization argument glosses over.
#include "bench/bench_util.h"
#include "src/isa/builder.h"
#include "src/workloads/workload.h"

namespace yieldhide::bench {
namespace {

// Gather: each iteration loads 4 independent scattered slots (indices from a
// dense index array) and accumulates them.
class GatherWorkload : public workloads::SimWorkload {
 public:
  static constexpr uint64_t kSlots = 1 << 18;  // 16 MiB of 64 B slots
  static constexpr uint64_t kIters = 800;
  static constexpr uint64_t kTasks = 32;

  GatherWorkload() {
    Rng rng(99);
    indices_.resize(kTasks * kIters * 4);
    for (auto& index : indices_) {
      index = rng.NextBelow(kSlots);
    }
    slot_values_.resize(kSlots);
    for (auto& value : slot_values_) {
      value = rng.Next() & 0xffff;
    }

    // r1: index cursor, r2: iterations, r3: slot base, r8: acc, r9: result,
    // r4..r7: slot addresses, r10..r13: gathered values.
    isa::ProgramBuilder builder("gather4");
    auto loop = builder.Here("loop");
    for (int lane = 0; lane < 4; ++lane) {
      builder.Load(static_cast<isa::Reg>(4 + lane), 1, lane * 8);  // index
    }
    for (int lane = 0; lane < 4; ++lane) {
      const isa::Reg reg = static_cast<isa::Reg>(4 + lane);
      builder.Shli(reg, reg, 6);  // *64 bytes per slot
      builder.Add(reg, reg, 3);   // + base
    }
    // Four adjacent loads whose addresses are final: one coalescible group.
    for (int lane = 0; lane < 4; ++lane) {
      builder.Load(static_cast<isa::Reg>(10 + lane), static_cast<isa::Reg>(4 + lane), 0);
    }
    for (int lane = 0; lane < 4; ++lane) {
      builder.Add(8, 8, static_cast<isa::Reg>(10 + lane));
    }
    builder.Addi(1, 1, 32);  // 4 indices consumed
    builder.Addi(2, 2, -1);
    builder.Bne(2, 0, loop);
    builder.Store(9, 0, 8);
    builder.Halt();
    program_ = std::move(builder).Build().value();
  }

  const isa::Program& program() const override { return program_; }

  void WriteImage(sim::SparseMemory& memory) const override {
    for (uint64_t i = 0; i < indices_.size(); ++i) {
      memory.Write64(workloads::kAuxRegionBase + i * 8, indices_[i]);
    }
    for (uint64_t s = 0; s < kSlots; ++s) {
      memory.Write64(workloads::kDataRegionBase + s * 64, slot_values_[s]);
    }
  }

  workloads::ContextSetup SetupFor(int index) const override {
    const uint64_t slice = static_cast<uint64_t>(index) % kTasks;
    const uint64_t cursor = workloads::kAuxRegionBase + slice * kIters * 32;
    const uint64_t result = ResultAddr(index);
    return [cursor, result](sim::CpuContext& ctx) {
      ctx.regs[1] = cursor;
      ctx.regs[2] = kIters;
      ctx.regs[3] = workloads::kDataRegionBase;
      ctx.regs[8] = 0;
      ctx.regs[9] = result;
    };
  }

  uint64_t ExpectedResult(int index) const override {
    const uint64_t slice = static_cast<uint64_t>(index) % kTasks;
    uint64_t acc = 0;
    for (uint64_t i = slice * kIters * 4; i < (slice + 1) * kIters * 4; ++i) {
      acc += slot_values_[indices_[i]];
    }
    return acc;
  }

 private:
  isa::Program program_;
  std::vector<uint64_t> indices_;
  std::vector<uint64_t> slot_values_;
};

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("C6", "ablation: yield coalescing + liveness-minimized saves (gather kernel)");
  JsonWriter json("C6", argc, argv);
  GatherWorkload workload;

  Table table({"group", "variant", "yields_ins", "cycles/iter", "stall%", "switch%", "speedup"});
  table.PrintHeader();

  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();

  for (int group : {2, 4, 8, 16}) {
    double base_cpi = 0;
    for (const auto& [name, coalesce, minimize] :
         std::vector<std::tuple<std::string, bool, bool>>{
             {"naive (neither)", false, false},
             {"+coalescing", true, false},
             {"+liveness", false, true},
             {"full (both)", true, true}}) {
      auto config = BenchPipeline();
      config.primary.coalesce = coalesce;
      config.primary.minimize_save_set = minimize;
      config.primary.policy = instrument::PrimaryPolicy::kMissThreshold;
      config.primary.miss_probability_threshold = 0.3;
      auto artifacts = core::BuildInstrumentedForWorkload(workload, config).value();

      const runtime::RunReport report =
          RunRoundRobin(workload, artifacts.binary, machine_config, group);
      const double cpi = static_cast<double>(report.total_cycles) /
                         (static_cast<double>(GatherWorkload::kIters) * group);
      if (base_cpi == 0) {
        base_cpi = cpi;
      }
      table.PrintRow({StrFormat("%d", group), name,
                      StrFormat("%zu", artifacts.primary_report.yields_inserted),
                      Fmt("%.1f", cpi), Fmt("%.1f", 100 * report.StallFraction()),
                      Fmt("%.1f", 100 * report.SwitchFraction()),
                      Fmt("%.2fx", base_cpi / cpi)});
      json.Add(StrFormat("g%d:", group) + name,
               {{"group", group},
                {"yields_inserted",
                 static_cast<double>(artifacts.primary_report.yields_inserted)},
                {"cycles_per_iter", cpi},
                {"stall_fraction", report.StallFraction()},
                {"switch_fraction", report.SwitchFraction()},
                {"speedup", base_cpi / cpi}});
    }
  }

  std::printf(
      "\nReading: liveness minimization helps at every group size. Coalescing\n"
      "shines at small groups: one switch covers 4 parallel fills, so 4\n"
      "coroutines do what per-load yields need 16 for. At group 16 the\n"
      "coalesced variant's 16x4 outstanding fills exceed the 16 MSHR entries\n"
      "and dropped prefetches reintroduce stalls — optimizations compose with\n"
      "the microarchitecture, not in isolation.\n");
  json.Flush();
  return 0;
}
