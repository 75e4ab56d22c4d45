// C11 — instrumentation level (§3.2): why the paper instruments at the
// BINARY level. "Consider a function that is inlined at multiple locations.
// If the profiled data indicates that instrumentation is needed at one of
// the locations but not others, we can easily do that at the binary level,
// but will have difficulty retrofitting the data back to higher-level
// representations and correctly instrumenting at that level."
//
// Workload: a loop whose body contains two INLINED COPIES of the same
// source-level helper `lookup(base, index)`. Copy A reads a 16 MiB scattered
// region (p_miss ~ 1); copy B reads a 1 KiB region (p_miss ~ 0). Binary-level
// profiles attribute samples to each copy's own addresses; a source-level
// instrumenter sees ONE `lookup` with the two copies' statistics merged
// (p_miss ~ 0.5) and must either instrument both copies or neither.
//
// Measured: binary-level (A only) vs source-level-aggressive (both) vs
// source-level-conservative (neither), 16-way interleaved.
#include "bench/bench_util.h"
#include "src/isa/builder.h"
#include "src/workloads/workload.h"

namespace yieldhide::bench {
namespace {

constexpr uint64_t kBigLines = 1 << 18;   // 16 MiB: misses
constexpr uint64_t kSmallLines = 16;      // 1 KiB: L1-resident
constexpr uint64_t kSmallBase = workloads::kAuxRegionBase;
constexpr uint64_t kIters = 1000;
constexpr uint64_t kLcgMul = 6364136223846793005ull;
constexpr uint64_t kLcgAdd = 1442695040888963407ull;

class InlinedLookups : public workloads::SimWorkload {
 public:
  InlinedLookups() {
    Rng rng(5);
    big_values_.resize(kBigLines);
    for (auto& v : big_values_) {
      v = rng.Next() & 0xffff;
    }
    small_values_.resize(kSmallLines);
    for (auto& v : small_values_) {
      v = rng.Next() & 0xffff;
    }

    // r2 iters, r3 big base, r4 small base, r5 lcg state, r7 scratch,
    // r8 acc, r9 result, r10/r11 loaded values.
    isa::ProgramBuilder builder("inlined_lookups");
    auto loop = builder.Here("loop");
    // --- inlined copy A: lookup(big, state) ---
    builder.Andi(7, 5, static_cast<int64_t>(kBigLines - 1));
    builder.Shli(7, 7, 6);
    builder.Add(7, 7, 3);
    site_a_ = builder.next_address();
    builder.Load(10, 7, 0);
    builder.Add(8, 8, 10);
    // --- inlined copy B: lookup(small, state) — same source construct ---
    builder.Andi(7, 5, static_cast<int64_t>(kSmallLines - 1));
    builder.Shli(7, 7, 6);
    builder.Add(7, 7, 4);
    site_b_ = builder.next_address();
    builder.Load(11, 7, 0);
    builder.Add(8, 8, 11);
    // advance the LCG
    builder.Muli(5, 5, static_cast<int64_t>(kLcgMul));
    builder.Addi(5, 5, static_cast<int64_t>(kLcgAdd));
    builder.Addi(2, 2, -1);
    builder.Bne(2, 0, loop);
    builder.Store(9, 0, 8);
    builder.Halt();
    program_ = std::move(builder).Build().value();
  }

  const isa::Program& program() const override { return program_; }

  void WriteImage(sim::SparseMemory& memory) const override {
    for (uint64_t i = 0; i < kBigLines; ++i) {
      memory.Write64(workloads::kDataRegionBase + i * 64, big_values_[i]);
    }
    for (uint64_t i = 0; i < kSmallLines; ++i) {
      memory.Write64(kSmallBase + i * 64, small_values_[i]);
    }
  }

  workloads::ContextSetup SetupFor(int index) const override {
    const uint64_t result = ResultAddr(index);
    const uint64_t seed = 0x1234 + static_cast<uint64_t>(index) * 7919;
    return [result, seed](sim::CpuContext& ctx) {
      ctx.regs[2] = kIters;
      ctx.regs[3] = workloads::kDataRegionBase;
      ctx.regs[4] = kSmallBase;
      ctx.regs[5] = seed;
      ctx.regs[9] = result;
    };
  }

  uint64_t ExpectedResult(int index) const override {
    uint64_t state = 0x1234 + static_cast<uint64_t>(index) * 7919;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < kIters; ++i) {
      acc += big_values_[state & (kBigLines - 1)];
      acc += small_values_[state & (kSmallLines - 1)];
      state = state * kLcgMul + kLcgAdd;
    }
    return acc;
  }

  isa::Addr site_a() const { return site_a_; }
  isa::Addr site_b() const { return site_b_; }

 private:
  isa::Program program_;
  isa::Addr site_a_ = 0;
  isa::Addr site_b_ = 0;
  std::vector<uint64_t> big_values_;
  std::vector<uint64_t> small_values_;
};

// Models source-level attribution: the two inlined copies collapse onto one
// source construct, so their per-copy statistics merge and both copies
// receive the merged numbers.
profile::LoadProfile SourceLevelView(const profile::LoadProfile& binary_profile,
                                     isa::Addr site_a, isa::Addr site_b) {
  profile::ProfileData scratch;
  const profile::SiteProfile& a = binary_profile.ForIp(site_a);
  const profile::SiteProfile& b = binary_profile.ForIp(site_b);
  profile::SiteProfile merged;
  merged.est_executions = a.est_executions + b.est_executions;
  merged.est_l1_misses = a.est_l1_misses + b.est_l1_misses;
  merged.est_l2_misses = a.est_l2_misses + b.est_l2_misses;
  merged.est_l3_misses = a.est_l3_misses + b.est_l3_misses;
  merged.est_stall_cycles = a.est_stall_cycles + b.est_stall_cycles;

  // Re-emit a LoadProfile where both binary addresses carry the merged stats
  // (the retrofit a source-level instrumenter is forced into).
  std::string text = "yh-load-profile v1\n";
  auto emit = [&](isa::Addr addr) {
    text += StrFormat("%u %.1f %.1f %.1f %.1f %.1f\n", addr, merged.est_executions,
                      merged.est_l1_misses, merged.est_l2_misses,
                      merged.est_l3_misses, merged.est_stall_cycles);
  };
  emit(site_a);
  emit(site_b);
  return profile::LoadProfile::Deserialize(text).value();
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("C11", "instrumentation level: binary-accurate vs source-aggregated (inlining)");
  JsonWriter json("C11", argc, argv);
  InlinedLookups workload;
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  const int kGroup = 16;

  // Profile once at binary fidelity.
  auto config = BenchPipeline();
  config.primary.policy = instrument::PrimaryPolicy::kMissThreshold;
  config.primary.miss_probability_threshold = 0.6;
  auto binary_artifacts = core::BuildInstrumentedForWorkload(workload, config).value();
  const profile::LoadProfile& true_profile = binary_artifacts.profile.loads;

  std::printf("binary-level profile: site A (ip %u) p_miss=%.2f, site B (ip %u) "
              "p_miss=%.2f\n",
              workload.site_a(), true_profile.ForIp(workload.site_a()).L2MissProbability(),
              workload.site_b(), true_profile.ForIp(workload.site_b()).L2MissProbability());
  const profile::LoadProfile source_view =
      SourceLevelView(true_profile, workload.site_a(), workload.site_b());
  std::printf("source-level view: both copies appear as one site with p_miss=%.2f\n\n",
              source_view.ForIp(workload.site_a()).L2MissProbability());

  Table table({"level", "sites", "cycles/iter", "stall%", "switch%", "speedup"});
  table.PrintHeader();
  double baseline_cpi = 0;

  auto run_variant = [&](const char* name, const profile::LoadProfile& profile,
                         double threshold) {
    instrument::PrimaryConfig pc = config.primary;
    pc.miss_probability_threshold = threshold;
    auto primary = instrument::RunPrimaryPass(workload.program(), profile, pc).value();
    const auto report =
        RunRoundRobin(workload, primary.instrumented, machine_config, kGroup);
    const double cpi =
        static_cast<double>(report.total_cycles) / (1000.0 * kGroup);
    if (baseline_cpi == 0) {
      baseline_cpi = cpi;
    }
    table.PrintRow({name, StrFormat("%zu", primary.report.instrumented_loads.size()),
                    Fmt("%.1f", cpi), Fmt("%.1f", 100 * report.StallFraction()),
                    Fmt("%.1f", 100 * report.SwitchFraction()),
                    Fmt("%.2fx", baseline_cpi / cpi)});
    json.Add(name,
             {{"sites",
               static_cast<double>(primary.report.instrumented_loads.size())},
              {"cycles_per_iter", cpi},
              {"stall_fraction", report.StallFraction()},
              {"switch_fraction", report.SwitchFraction()},
              {"speedup", baseline_cpi / cpi}});
  };

  // Baseline: no instrumentation (threshold impossible to meet).
  run_variant("none", true_profile, 2.0);
  // Binary level: per-copy truth; threshold 0.6 picks site A only.
  run_variant("binary", true_profile, 0.6);
  // Source level, aggressive: merged p_miss ~0.5 passes a 0.4 threshold —
  // BOTH copies get prefetch+yield, including the always-hitting one.
  run_variant("src-both", source_view, 0.4);
  // Source level, conservative: merged 0.5 fails a 0.6 threshold — NEITHER
  // copy is instrumented and the hot misses stay exposed.
  run_variant("src-neither", source_view, 0.6);

  std::printf(
      "\nReading: binary-level placement instruments exactly the hot inlined\n"
      "copy. Source-level attribution merges the copies (p_miss ~0.5) and is\n"
      "cornered into either paying a useless yield at the cold copy every\n"
      "iteration or leaving the hot copy's misses unhidden — the paper's\n"
      "inlining argument, measured.\n");
  json.Flush();
  return 0;
}
