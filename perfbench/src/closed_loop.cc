// The closed-loop workloads, `chase` and `kernels`. Both run every task of a
// workload in rounds of 16 coroutines under runtime::RoundRobinScheduler on
// one machine: the uninstrumented baseline first, then the instrumented
// binary, each from cold caches and a zero clock. A round starts when the
// previous one has completed, so the load is a closed loop of 16 clients.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/annotate.h"
#include "src/runtime/round_robin.h"
#include "src/workloads.h"
#include "src/workloads/array_scan.h"
#include "src/workloads/btree_lookup.h"
#include "src/workloads/hash_probe.h"
#include "src/workloads/pointer_chase.h"
#include "src/workloads/skiplist_lookup.h"

namespace perfbench {
namespace {

namespace core = yh::core;
namespace instrument = yh::instrument;
namespace sim = yh::sim;
namespace workloads = yh::workloads;

constexpr int kGroup = 16;
constexpr int kSetupRepeats = 8;
constexpr uint64_t kKernelVariants = 4;
constexpr uint64_t kMaxInstructions = 4'000'000'000ull;
constexpr uint64_t kPoison = 0xdeadbeefdeadbeefull;

// Everything one closed-loop run of one binary produced on the simulated
// plane.
struct LoopResult {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t stall = 0;
  uint64_t switches = 0;
  uint64_t yields = 0;
  uint64_t tasks = 0;
  uint64_t wrong = 0;
  std::vector<uint64_t> latencies;
  HierStats hier;

  bool SameSimPlane(const LoopResult& o) const {
    return cycles == o.cycles && instructions == o.instructions && stall == o.stall &&
           switches == o.switches && yields == o.yields && tasks == o.tasks &&
           latencies == o.latencies && hier.loads == o.hier.loads &&
           hier.l1_hits == o.hier.l1_hits && hier.dram_accesses == o.hier.dram_accesses &&
           hier.inflight_merges == o.hier.inflight_merges &&
           hier.prefetches_issued == o.hier.prefetches_issued;
  }
};

// One workload under test: its generator, machine (data image initialized
// once), pipeline configuration and host-computed expected results.
struct Subject {
  std::string name;
  std::unique_ptr<workloads::SimWorkload> workload;
  core::PipelineConfig config;
  std::unique_ptr<sim::Machine> machine;
  std::vector<uint64_t> expected;
  uint64_t ops_per_task = 0;
  // Built once in set-up (chase) or in every timed pass (kernels).
  std::optional<core::PipelineArtifacts> artifacts;
  instrument::InstrumentedProgram baseline;
};

core::PipelineConfig BasePipeline(bool nextline_prefetcher) {
  core::PipelineConfig config;
  config.machine = sim::MachineConfig::SkylakeLike();
  config.machine.hierarchy.enable_nextline_prefetcher = nextline_prefetcher;
  config.profile_tasks = 4;
  config.collector.l2_miss_period = 29;
  config.collector.stall_cycles_period = 199;
  config.collector.retired_period = 61;
  config.Finalize();
  return config;
}

template <typename W>
yh::Result<Subject> MakeSubject(const std::string& name, const typename W::Config& wc,
                                uint64_t ops_per_task, int tasks, bool prefetcher) {
  YH_ASSIGN_OR_RETURN(W made, W::Make(wc));
  Subject s;
  s.name = name;
  s.workload = std::make_unique<W>(std::move(made));
  s.config = BasePipeline(prefetcher);
  s.machine = std::make_unique<sim::Machine>(s.config.machine);
  s.workload->InitMemory(s.machine->memory());
  s.ops_per_task = ops_per_task;
  for (int i = 0; i < tasks; ++i) {
    s.expected.push_back(s.workload->ExpectedResult(i));
  }
  s.baseline = yh::runtime::AnnotateManualYields(s.workload->program(), s.config.machine.cost);
  return s;
}

// The workload seed feeds every generator; the program only sees its output.
yh::Result<std::vector<Subject>> MakeSubjects(bool kernels, uint64_t seed) {
  std::vector<Subject> subjects;
  if (!kernels) {
    // 1<<18 nodes x 64 B = 16 MiB, twice the simulated L3: every hop misses.
    workloads::PointerChase::Config chase;
    chase.num_nodes = 1 << 18;
    chase.steps_per_task = 256;
    chase.seed = seed;
    YH_ASSIGN_OR_RETURN(Subject s, MakeSubject<workloads::PointerChase>(
                                       "pointer_chase", chase, chase.steps_per_task,
                                       1024, false));
    subjects.push_back(std::move(s));
    return subjects;
  }
  // Working sets inside the simulated L2 (1 MiB) or L3 (8 MiB). Each kernel
  // is made in kKernelVariants variants from seeds derived from `seed`: the
  // profile places yields differently on different skip lists, and one
  // variant per seed let that choice move the figures by 4% between seeds.
  for (uint64_t v = 0; v < kKernelVariants; ++v) {
    const uint64_t vseed = seed * kKernelVariants + v;
    const auto named = [v](const char* kernel) {
      std::string name = kernel;
      name += '/';
      name += std::to_string(v);
      return name;
    };
    workloads::HashProbe::Config hash;
    hash.buckets_log2 = 17;  // 2 MiB
    hash.keys_per_task = 64;
    hash.num_tasks = 256;
    hash.seed = vseed;
    YH_ASSIGN_OR_RETURN(Subject h, MakeSubject<workloads::HashProbe>(
                                       named("hash_probe"), hash, hash.keys_per_task,
                                       256, false));
    subjects.push_back(std::move(h));
    workloads::BtreeLookup::Config btree;
    btree.num_keys = 1 << 15;  // 1 MiB of nodes
    btree.lookups_per_task = 16;
    btree.num_tasks = 256;
    btree.seed = vseed + 1;
    YH_ASSIGN_OR_RETURN(Subject b, MakeSubject<workloads::BtreeLookup>(
                                       named("btree"), btree, btree.lookups_per_task,
                                       256, false));
    subjects.push_back(std::move(b));
    workloads::SkiplistLookup::Config skip;
    skip.num_keys = 1 << 14;
    skip.lookups_per_task = 16;
    skip.num_tasks = 256;
    skip.seed = vseed + 2;
    YH_ASSIGN_OR_RETURN(Subject k, MakeSubject<workloads::SkiplistLookup>(
                                       named("skiplist"), skip, skip.lookups_per_task,
                                       256, false));
    subjects.push_back(std::move(k));
    workloads::ArrayScan::Config scan;
    scan.num_elements = 1 << 17;  // 1 MiB, streamed with the next-line prefetcher on
    scan.elements_per_task = 512;
    scan.seed = vseed + 3;
    YH_ASSIGN_OR_RETURN(Subject a, MakeSubject<workloads::ArrayScan>(
                                       named("array_scan"), scan, scan.elements_per_task,
                                       256, true));
    subjects.push_back(std::move(a));
  }
  return subjects;
}

// Runs every task of `s` on `binary`, closed-loop in rounds of kGroup.
yh::Status RunLoop(Subject& s, const instrument::InstrumentedProgram& binary,
                   EventRecorder* recorder, uint64_t* run_ns, LoopResult* out) {
  sim::Machine& machine = *s.machine;
  machine.ResetMicroarchState();
  if (recorder != nullptr) {
    recorder->NewSegment();
  }
  const int tasks = static_cast<int>(s.expected.size());
  for (int first = 0; first < tasks; first += kGroup) {
    const int n = std::min(kGroup, tasks - first);
    yh::runtime::RoundRobinScheduler scheduler(&binary, &machine);
    for (int i = first; i < first + n; ++i) {
      machine.memory().Write64(s.workload->ResultAddr(i), kPoison);
      scheduler.AddCoroutine(s.workload->SetupFor(i));
    }
    yh::Result<yh::runtime::RunReport> run = [&] {
      Timed timed("sim.run", run_ns);
      return scheduler.Run(kMaxInstructions);
    }();
    YH_RETURN_IF_ERROR(run.status());
    out->cycles += run->total_cycles;
    out->instructions += run->instructions;
    out->stall += run->stall_cycles;
    out->switches += run->switch_cycles;
    out->yields += run->yields;
    out->tasks += static_cast<uint64_t>(n);
    for (const yh::runtime::CompletionRecord& c : run->completions) {
      out->latencies.push_back(c.LatencyCycles());
    }
    for (int i = first; i < first + n; ++i) {
      if (s.workload->ReadResult(machine.memory(), i) != s.expected[i]) {
        ++out->wrong;
      }
    }
  }
  AddStats(out->hier, machine.hierarchy().stats());
  return yh::Status::Ok();
}

struct SubjectPass {
  LoopResult base;
  LoopResult inst;
  double build_ms = 0.0;            // kernels only: this pass's build
  uint64_t profile_instructions = 0;
  uint64_t cpu_ns = 0;              // build (if any) and both runs
};

// One timed pass over every subject. Kernels are built from scratch first
// (stepwise when `steps` is given), the chase reuses its set-up build.
struct Pass {
  std::vector<SubjectPass> subjects;
  uint64_t cpu_ns = 0;
  uint64_t run_ns = 0;
  uint64_t probe_ns = 0;  // traced-only rebuild probe, excluded from cpu_ns
  double scale = 1.0;     // SpeedScale just before the pass
};

yh::Status RunPass(std::vector<Subject>& subjects, bool build, const std::string& run,
                   PipelineSteps* steps, std::vector<EventRecorder>* recorders,
                   Pass* pass) {
  const uint64_t start = CpuNs();
  for (size_t i = 0; i < subjects.size(); ++i) {
    Subject& s = subjects[i];
    SubjectPass sp;
    GlobalTracer().SetRun(run + "/" + s.name);
    const uint64_t subject_start = CpuNs();
    uint64_t probe = 0;
    if (build) {
      const uint64_t rebuild_before = steps != nullptr ? steps->rebuild_ns : 0;
      const uint64_t b0 = CpuNs();
      yh::Result<core::PipelineArtifacts> built =
          steps != nullptr ? BuildStepwise(*s.workload, s.config, steps) : [&] {
            Timed timed("pipeline.build");
            return core::BuildInstrumentedForWorkload(*s.workload, s.config);
          }();
      YH_RETURN_IF_ERROR(built.status());
      probe = steps != nullptr ? steps->rebuild_ns - rebuild_before : 0;
      pass->probe_ns += probe;
      sp.build_ms = static_cast<double>(CpuNs() - b0 - probe) / 1e6;
      sp.profile_instructions = built->profile_run_instructions;
      if (s.artifacts.has_value() && !SameBinary(s.artifacts->binary, built->binary)) {
        return yh::InternalError(s.name + ": rebuild produced a different binary");
      }
      s.artifacts = std::move(built).value();
    }
    EventRecorder* recorder = recorders != nullptr ? &(*recorders)[i] : nullptr;
    if (recorder != nullptr) {
      s.machine->listeners().Add(recorder);
    }
    YH_RETURN_IF_ERROR(RunLoop(s, s.baseline, recorder, &pass->run_ns, &sp.base));
    YH_RETURN_IF_ERROR(RunLoop(s, s.artifacts->binary, recorder, &pass->run_ns, &sp.inst));
    if (recorder != nullptr) {
      s.machine->listeners().Remove(recorder);
    }
    sp.cpu_ns = CpuNs() - subject_start - probe;
    pass->subjects.push_back(std::move(sp));
  }
  pass->cpu_ns = CpuNs() - start - pass->probe_ns;
  return yh::Status::Ok();
}

bool SameSimPlane(const Pass& a, const Pass& b) {
  if (a.subjects.size() != b.subjects.size()) {
    return false;
  }
  for (size_t i = 0; i < a.subjects.size(); ++i) {
    if (!a.subjects[i].base.SameSimPlane(b.subjects[i].base) ||
        !a.subjects[i].inst.SameSimPlane(b.subjects[i].inst)) {
      return false;
    }
  }
  return true;
}

// A pass's host throughput: the geometric mean over subjects of each one's
// simulated instructions (`ops` false, in millions) or operations (`ops`
// true) per host-CPU second. Per-subject rates keep a seed that shifts work
// between the kernels from moving the figure.
double PassRate(const Pass& pass, const std::vector<Subject>& subjects, bool ops) {
  double log_sum = 0.0;
  for (size_t i = 0; i < subjects.size(); ++i) {
    const SubjectPass& sp = pass.subjects[i];
    const double work =
        ops ? static_cast<double>((sp.base.tasks + sp.inst.tasks) * subjects[i].ops_per_task)
            : static_cast<double>(sp.base.instructions + sp.inst.instructions +
                                  sp.profile_instructions) / 1e6;
    log_sum += std::log(work / (static_cast<double>(sp.cpu_ns) / 1e9));
  }
  return std::exp(log_sum / static_cast<double>(subjects.size()));
}

void CountAttempts(const Pass& pass, const std::vector<Subject>& subjects, Report& report) {
  for (size_t i = 0; i < subjects.size(); ++i) {
    const SubjectPass& sp = pass.subjects[i];
    report.Attempted(sp.base.tasks + sp.inst.tasks);
    report.Failed(sp.base.wrong + sp.inst.wrong,
                  subjects[i].name + " task result != ExpectedResult");
  }
}

// Simulated-plane end-to-end rows: identical for every run of one seed.
void ReportSimPlane(const Pass& pass, const std::vector<Subject>& subjects, Report& report) {
  double log_cpo = 0.0;
  double log_speedup = 0.0;
  uint64_t inst_cycles = 0;
  uint64_t tasks = 0;
  std::vector<uint64_t> latencies;
  for (size_t i = 0; i < subjects.size(); ++i) {
    const SubjectPass& sp = pass.subjects[i];
    const double ops = static_cast<double>(sp.inst.tasks * subjects[i].ops_per_task);
    const double cpo = static_cast<double>(sp.inst.cycles) / ops;
    const double speedup =
        static_cast<double>(sp.base.cycles) / static_cast<double>(sp.inst.cycles);
    std::printf("  %-14s cycles/op base %.1f inst %.1f  speedup %.3fx  yields %llu\n",
                subjects[i].name.c_str(), static_cast<double>(sp.base.cycles) / ops, cpo,
                speedup, static_cast<unsigned long long>(sp.inst.yields));
    log_cpo += std::log(cpo);
    log_speedup += std::log(speedup);
    inst_cycles += sp.inst.cycles;
    tasks += sp.inst.tasks;
    latencies.insert(latencies.end(), sp.inst.latencies.begin(), sp.inst.latencies.end());
  }
  const double n = static_cast<double>(subjects.size());
  std::printf("  task latency samples: %zu (instrumented binary, cycles)\n",
              latencies.size());
  report.Metric("sim_cycles_per_op", std::exp(log_cpo / n), "cycles");
  report.Metric("sim_speedup", std::exp(log_speedup / n), "x");
  report.Metric("sim_p50_cycles", static_cast<double>(Percentile(latencies, 0.50)), "cycles");
  report.Metric("sim_p99_cycles", static_cast<double>(Percentile(latencies, 0.99)), "cycles");
  report.Metric("sim_bg_per_mcycle",
                static_cast<double>(tasks) / (static_cast<double>(inst_cycles) / 1e6),
                "1/Mcycle");
}

yh::Status RunClosedLoopWorkload(const Options& options, Report& report, bool kernels) {
  const std::string name = kernels ? "kernels" : "chase";
  const std::string run_id = name + "/seed" + std::to_string(options.seed);
  GlobalTracer().SetRun(run_id + "/setup");

  // Set-up: workload generation, image init, machine construction, and (chase)
  // the initial pipeline build. Repeated; the last one is kept.
  HostSamples host;
  std::vector<Subject> subjects;
  const int setups = options.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    NextCpu();
    const double scale = SpeedScale();
    host.scale.push_back(scale);
    subjects.clear();
    const uint64_t t0 = CpuNs();
    YH_ASSIGN_OR_RETURN(subjects, MakeSubjects(kernels, options.seed));
    if (!kernels) {
      const uint64_t b0 = CpuNs();
      Timed timed("pipeline.build");
      YH_ASSIGN_OR_RETURN(core::PipelineArtifacts built,
                          core::BuildInstrumentedForWorkload(*subjects[0].workload,
                                                             subjects[0].config));
      subjects[0].artifacts = std::move(built);
      host.build_ms.push_back(static_cast<double>(CpuNs() - b0) / 1e6 / scale);
    }
    host.setup_s.push_back(static_cast<double>(CpuNs() - t0) / 1e9 / scale);
  }

  if (options.trace) {
    PipelineSteps steps;
    if (!kernels) {
      // The chase builds once, in set-up; trace that build step by step.
      GlobalTracer().Enable(true);
      GlobalTracer().SetRun(run_id + "/setup-build");
      YH_ASSIGN_OR_RETURN(core::PipelineArtifacts stepwise,
                          BuildStepwise(*subjects[0].workload, subjects[0].config, &steps));
      GlobalTracer().Enable(false);
      report.Check(SameBinary(stepwise.binary, subjects[0].artifacts->binary),
                   "stepwise chase build differs from BuildInstrumentedForWorkload");
    }
    Pass plain;
    YH_RETURN_IF_ERROR(RunPass(subjects, kernels, run_id + "/untraced", nullptr, nullptr,
                               &plain));
    std::vector<EventRecorder> recorders(subjects.size());
    Pass traced;
    GlobalTracer().Enable(true);
    YH_RETURN_IF_ERROR(RunPass(subjects, kernels, run_id + "/traced",
                               kernels ? &steps : nullptr, &recorders, &traced));
    GlobalTracer().SetRun(run_id + "/replay");
    ReplayResult replay;
    uint64_t pages = 0;
    for (size_t i = 0; i < subjects.size(); ++i) {
      Accumulate(replay, Replay(recorders[i], subjects[i].config.machine.hierarchy,
                                subjects[i].machine->memory()));
      pages += subjects[i].machine->memory().resident_pages();
    }
    GlobalTracer().Enable(false);
    CountAttempts(plain, subjects, report);
    CountAttempts(traced, subjects, report);
    report.Check(SameSimPlane(plain, traced),
                 "traced run's simulated plane differs from the untraced run");

    HierStats live;
    uint64_t executed = 0, stall = 0, switches = 0, cycles = 0, yields = 0;
    for (const SubjectPass& sp : plain.subjects) {
      AddStats(live, sp.base.hier);
      AddStats(live, sp.inst.hier);
      executed += sp.base.instructions + sp.inst.instructions;
      stall += sp.inst.stall;
      switches += sp.inst.switches;
      cycles += sp.inst.cycles;
      yields += sp.inst.yields;
    }
    ReportSimLayer(report, executed, plain.run_ns, live, replay, pages);
    ReportRuntimeLayer(report, yields, stall, switches, cycles);
    ReportPipelineLayer(report, steps);
    ReportIdleServingLayers(report);
    ReportTraceRows(report, traced.cpu_ns, plain.cpu_ns);
    return yh::Status::Ok();
  }

  // Timed phase: whole passes until the time is up, each on the next CPU;
  // every pass must reproduce the first one's simulated plane. One untimed
  // pass first, so page faults on fresh images and tag arrays land outside
  // the measurement.
  {
    Pass warm;
    YH_RETURN_IF_ERROR(RunPass(subjects, kernels, run_id + "/warm", nullptr, nullptr, &warm));
  }
  std::vector<Pass> passes;
  const double deadline = WallSeconds() + options.seconds;
  while (passes.size() < 3 || WallSeconds() < deadline) {
    NextCpu();
    Pass pass;
    pass.scale = SpeedScale();
    YH_RETURN_IF_ERROR(RunPass(subjects, kernels, run_id, nullptr, nullptr, &pass));
    CountAttempts(pass, subjects, report);
    if (!passes.empty()) {
      report.Check(SameSimPlane(passes.front(), pass),
                   "pass " + std::to_string(passes.size()) + " simulated plane differs");
    }
    passes.push_back(std::move(pass));
  }
  for (const Pass& pass : passes) {
    host.scale.push_back(pass.scale);
    host.minstr_per_s.push_back(PassRate(pass, subjects, false) * pass.scale);
    host.req_per_s.push_back(PassRate(pass, subjects, true) * pass.scale);
    if (kernels) {
      for (const SubjectPass& sp : pass.subjects) {
        host.build_ms.push_back(sp.build_ms / pass.scale);
      }
    }
  }
  std::printf("  passes: %zu, setups: %zu\n", passes.size(), host.setup_s.size());
  ReportHostPlane(report, host);
  ReportSimPlane(passes.front(), subjects, report);
  ReportOutcome(report);
  return yh::Status::Ok();
}

}  // namespace

yh::Status RunChase(const Options& options, Report& report) {
  return RunClosedLoopWorkload(options, report, false);
}

yh::Status RunKernels(const Options& options, Report& report) {
  return RunClosedLoopWorkload(options, report, true);
}

}  // namespace perfbench
