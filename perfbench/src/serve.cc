// The `serve` workload: seeded open-loop Poisson arrivals into a guarded,
// adapting two-shard adapt::ServerGroup with serve::ShardFrontEnd sources
// and two tenants, foreground (p99 budget) and background. The handler is a
// PhasedChase whose phase flips mid-run, so rebuilds, canaries and swaps
// happen, and the full observer set is attached.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/runtime/annotate.h"
#include "src/serve/front_end.h"
#include "src/workloads.h"
#include "src/workloads/phased_chase.h"

namespace perfbench {
namespace {

namespace adapt = yh::adapt;
namespace core = yh::core;
namespace obs = yh::obs;
namespace serve = yh::serve;
namespace sim = yh::sim;
namespace workloads = yh::workloads;

constexpr size_t kShards = 2;
constexpr int kSetupRepeats = 8;
constexpr uint64_t kRingNodes = 1 << 16;  // 4 MiB per ring: fits the 8 MiB L3
constexpr uint64_t kSteps = 100;
// Offered load per shard: 70 requests per simulated Mcycle, between the
// uninstrumented binary's capacity (about 60) and the instrumented knee
// (about 109), over a 20 Mcycle horizon (about 1400 requests per shard).
constexpr double kRatePerKcycle = 0.07;
constexpr uint64_t kHorizonCycles = 20'000'000;
// Per-shard request index at which the phase flips: half-way.
constexpr int kFlipIndex = 700;
// Arrival streams per run. The schedule is fixed, the same for every seed:
// the seed draws the data image, and a seed-drawn schedule moved the
// foreground p99 by a third between seeds.
constexpr int kStreams = 16;
constexpr uint64_t kForegroundBudget = 600'000;
// Room for the backlog the phase flip builds before the rebuild lands, so
// no request is shed.
constexpr size_t kQueueCapacity = 512;
constexpr int kMaxRequestsPerShard = 8192;
constexpr uint64_t kPoison = 0xdeadbeefdeadbeefull;

// What a pass attaches to the group.
enum class Observers { kAll, kNone, kAllFreeCapture };

struct ServeSetup {
  std::optional<workloads::PhasedChase> twin;     // what the shipped build saw
  std::optional<workloads::PhasedChase> drifted;  // what is served
  core::PipelineConfig pipeline;
  std::optional<core::PipelineArtifacts> stale;
  std::vector<std::unique_ptr<sim::Machine>> machines;
};

yh::Result<ServeSetup> MakeSetup(uint64_t seed, double* build_ms) {
  ServeSetup setup;
  setup.pipeline.machine = sim::MachineConfig::SkylakeLike();
  // Requests are short (about 500 instructions), so the offline profile
  // samples 16 of them at short periods to see the phase-A miss site.
  setup.pipeline.collector.l2_miss_period = 7;
  setup.pipeline.collector.stall_cycles_period = 47;
  setup.pipeline.collector.retired_period = 13;
  setup.pipeline.collector.period_jitter = 0.1;
  setup.pipeline.profile_tasks = 16;
  setup.pipeline.Finalize();

  workloads::PhasedChase::Config wc;
  wc.num_nodes = kRingNodes;
  wc.steps_per_task = kSteps;
  wc.seed = seed;
  wc.severity = 0.0;
  YH_ASSIGN_OR_RETURN(workloads::PhasedChase twin, workloads::PhasedChase::Make(wc));
  setup.twin.emplace(std::move(twin));
  wc.severity = 1.0;
  wc.flip_task_index = kFlipIndex;
  YH_ASSIGN_OR_RETURN(workloads::PhasedChase drifted, workloads::PhasedChase::Make(wc));
  setup.drifted.emplace(std::move(drifted));
  {
    const uint64_t b0 = CpuNs();
    Timed timed("pipeline.build");
    YH_ASSIGN_OR_RETURN(core::PipelineArtifacts stale,
                        core::BuildInstrumentedForWorkload(*setup.twin, setup.pipeline));
    setup.stale.emplace(std::move(stale));
    *build_ms = static_cast<double>(CpuNs() - b0) / 1e6;
  }
  for (size_t s = 0; s < kShards; ++s) {
    setup.machines.push_back(std::make_unique<sim::Machine>(setup.pipeline.machine));
    setup.drifted->InitMemory(setup.machines.back()->memory());
  }
  return setup;
}

// Forwards every RequestSource call to a ShardFrontEnd and times Poll.
class TimedSource : public adapt::RequestSource {
 public:
  TimedSource(adapt::RequestSource* inner, uint64_t* poll_ns, uint64_t* poll_calls)
      : inner_(inner), poll_ns_(poll_ns), poll_calls_(poll_calls) {}

  bool Poll(sim::Machine& machine, yh::runtime::DualModeScheduler& scheduler) override {
    ++*poll_calls_;
    Timed timed("serve.poll", poll_ns_);
    return inner_->Poll(machine, scheduler);
  }
  void OnScavengerSpawn(int ctx_id, uint64_t now) override {
    inner_->OnScavengerSpawn(ctx_id, now);
  }
  void OnScavengerRetire(int ctx_id, uint64_t now, bool completed) override {
    inner_->OnScavengerRetire(ctx_id, now, completed);
  }
  std::vector<adapt::TenantSnapshot> Tenants() const override { return inner_->Tenants(); }
  int TenantAtCycle(uint64_t cycle) const override { return inner_->TenantAtCycle(cycle); }
  void ForgetTenantTimelineBefore(uint64_t cycle) override {
    inner_->ForgetTenantTimelineBefore(cycle);
  }
  void SetTenantDemoted(const std::string& name, bool demoted) override {
    inner_->SetTenantDemoted(name, demoted);
  }

 private:
  adapt::RequestSource* inner_;
  uint64_t* poll_ns_;
  uint64_t* poll_calls_;
};

// Host-side serve-layer timings of a traced pass.
struct ServeLayers {
  uint64_t poll_ns = 0;
  uint64_t poll_calls = 0;
  uint64_t supply_ns = 0;
};

// Everything one pass produced. `SimKey` is what must repeat exactly.
struct ServePass {
  adapt::GroupReport group;
  std::vector<serve::FrontEndReport> fronts;
  std::vector<uint64_t> fg_latencies;  // exact, from spans (observed passes)
  uint64_t machine_cycles = 0;
  uint64_t trace_events = 0;
  uint64_t modeled_overhead_cycles = 0;
  uint64_t wrong = 0;
  uint64_t cpu_ns = 0;
  uint64_t run_ns = 0;  // inside ServerGroup::Run
  double scale = 1.0;   // SpeedScale just before a timed pass

  uint64_t Completed(size_t tenant) const {
    uint64_t n = 0;
    for (const auto& f : fronts) n += f.tenants[tenant].counters.completed;
    return n;
  }
  uint64_t Offered(size_t tenant) const {
    uint64_t n = 0;
    for (const auto& f : fronts) n += f.tenants[tenant].counters.offered;
    return n;
  }
  uint64_t Shed(size_t tenant) const {
    uint64_t n = 0;
    for (const auto& f : fronts) n += f.tenants[tenant].counters.shed;
    return n;
  }
  uint64_t InFlight() const {
    uint64_t n = 0;
    for (const auto& f : fronts) n += f.counters.in_flight;
    return n;
  }
  // Foreground p99 from the front ends' histograms (bucketed), pooled.
  uint64_t HistogramFgP99() const {
    obs::SparseHistogram pooled;
    for (const auto& f : fronts) pooled.Merge(f.tenants[0].latency);
    return pooled.P99();
  }
  uint64_t Instructions() const {
    uint64_t n = 0;
    for (const auto& s : group.shards) n += s.run.run.instructions;
    return n;
  }
  uint64_t BusyCycles() const {
    uint64_t n = 0;
    for (const auto& s : group.shards) {
      n += s.run.run.issue_cycles + s.run.run.stall_cycles + s.run.run.switch_cycles;
    }
    return n;
  }
  std::vector<uint64_t> SimKey() const {
    std::vector<uint64_t> key = {machine_cycles, Instructions(), BusyCycles(),
                                 Completed(0), Completed(1), Shed(0), Shed(1),
                                 static_cast<uint64_t>(group.rebuilds),
                                 static_cast<uint64_t>(group.installs),
                                 static_cast<uint64_t>(group.rollbacks),
                                 HistogramFgP99(), trace_events, modeled_overhead_cycles};
    key.insert(key.end(), fg_latencies.begin(), fg_latencies.end());
    return key;
  }
};

adapt::ServerGroupConfig GroupConfig(const ServeSetup& setup, bool baseline) {
  adapt::ServerGroupConfig config;
  config.shards = kShards;
  config.shard.controller.pipeline = setup.pipeline;
  config.shard.tasks_per_epoch = 8;
  config.shard.adapt_enabled = !baseline;
  config.shard.scale_pool = !baseline;
  config.shard.dual.max_scavengers = 4;
  config.shard.dual.hide_window_cycles = 300;
  config.guard.enabled = !baseline;
  config.guard.confirmation_window = 3;
  config.guard.regression_ratio = 2.5;
  return config;
}

// One serving pass on the set-up's machines (caches and clocks reset, data
// image kept). `baseline` serves the uninstrumented binary with no
// scavengers and no adaptation: the reference for sim_speedup.
yh::Status RunServePass(ServeSetup& setup, int stream, Observers observers, bool baseline,
                        ServeLayers* layers, std::vector<EventRecorder>* recorders,
                        ServePass* out) {
  const uint64_t start = CpuNs();
  const workloads::PhasedChase& chase = *setup.drifted;
  std::vector<sim::Machine*> machines;
  for (size_t s = 0; s < kShards; ++s) {
    sim::Machine& m = *setup.machines[s];
    m.ResetMicroarchState();
    m.listeners().Clear();
    for (int i = 0; i < kMaxRequestsPerShard; ++i) {
      m.memory().Write64(chase.ResultAddr(i), kPoison);
    }
    machines.push_back(&m);
  }

  const adapt::ServerGroupConfig config = GroupConfig(setup, baseline);
  YH_RETURN_IF_ERROR(config.Validate());
  core::PipelineArtifacts initial = *setup.stale;
  if (baseline) {
    initial.binary = yh::runtime::AnnotateManualYields(chase.program(),
                                                       setup.pipeline.machine.cost);
  }
  adapt::ServerGroup group(&chase.program(), std::move(initial), machines, config);

  const bool observed = observers != Observers::kNone;
  obs::TraceConfig trace_config;
  if (observers == Observers::kAllFreeCapture) {
    trace_config.record_cost_cycles = 0;
  }
  obs::TraceRecorder trace(trace_config);
  obs::MetricsRegistry metrics;
  if (observed) {
    group.SetObservability(&trace, &metrics);
  }

  serve::TenantSpec fg;
  fg.name = "fg";
  fg.share = 0.5;
  fg.p99_budget_cycles = kForegroundBudget;
  serve::TenantSpec bg;
  bg.name = "bg";
  bg.priority = serve::TenantSpec::Class::kBackground;
  bg.share = 0.5;

  std::vector<std::unique_ptr<serve::ShardFrontEnd>> fronts;
  std::vector<std::unique_ptr<TimedSource>> timed_sources;
  std::vector<std::unique_ptr<obs::CycleProfiler>> profilers;
  std::vector<std::unique_ptr<obs::SpanCollector>> spans;
  std::vector<std::unique_ptr<obs::SloEvaluator>> slos;
  std::vector<std::unique_ptr<obs::ExemplarReservoir>> exemplars;
  for (size_t s = 0; s < kShards; ++s) {
    serve::FrontEndConfig fe;
    fe.arrival.kind = serve::ArrivalConfig::Kind::kPoisson;
    fe.arrival.rate_per_kcycle = kRatePerKcycle;
    fe.arrival.horizon_cycles = kHorizonCycles;
    fe.arrival.seed = 1 + static_cast<uint64_t>(stream) * kShards + s;
    fe.id_seed = fe.arrival.seed;
    fe.queue_capacity = kQueueCapacity;
    fe.scavengers_serve = !baseline;
    fe.tenants = {fg, bg};
    YH_RETURN_IF_ERROR(fe.Validate());
    const obs::Labels labels = {{"shard", std::to_string(s)}};
    fronts.push_back(std::make_unique<serve::ShardFrontEnd>(
        fe, [&chase](uint64_t id) { return chase.SetupFor(static_cast<int>(id)); },
        observed ? &trace : nullptr, observed ? &metrics : nullptr, labels));
    serve::ShardFrontEnd& front = *fronts.back();
    if (observed) {
      profilers.push_back(std::make_unique<obs::CycleProfiler>());
      spans.push_back(std::make_unique<obs::SpanCollector>());
      slos.push_back(std::make_unique<obs::SloEvaluator>());
      exemplars.push_back(std::make_unique<obs::ExemplarReservoir>());
      spans.back()->SetTrace(&trace);
      spans.back()->SetExemplars(exemplars.back().get());
      slos.back()->SetTrace(&trace, static_cast<int32_t>(s));
      front.SetSpanCollector(spans.back().get());
      front.SetSloEvaluator(slos.back().get());
      group.SetProfiler(s, profilers.back().get());
      group.SetSpanCollector(s, spans.back().get());
      group.SetSloEvaluator(s, slos.back().get());
      group.SetExemplar(s, exemplars.back().get());
    }
    if (layers != nullptr) {
      timed_sources.push_back(
          std::make_unique<TimedSource>(&front, &layers->poll_ns, &layers->poll_calls));
      group.SetRequestSource(s, timed_sources.back().get());
      group.SetScavengerFactory(
          s, [supply = front.MakeScavengerFactory(), acc = &layers->supply_ns]() mutable {
            Timed timed("serve.supply", acc);
            return supply();
          });
    } else {
      group.SetRequestSource(s, &front);
      group.SetScavengerFactory(s, front.MakeScavengerFactory());
    }
    if (recorders != nullptr) {
      (*recorders)[s].NewSegment();
      setup.machines[s]->listeners().Add(&(*recorders)[s]);
    }
  }

  yh::Result<adapt::GroupReport> report = [&] {
    Timed timed("adapt.group_run", &out->run_ns);
    return group.Run();
  }();
  YH_RETURN_IF_ERROR(report.status());
  out->group = std::move(report).value();

  for (size_t s = 0; s < kShards; ++s) {
    sim::Machine& m = *setup.machines[s];
    if (recorders != nullptr) {
      m.listeners().Remove(&(*recorders)[s]);
    }
    YH_RETURN_IF_ERROR(fronts[s]->status());
    out->fronts.push_back(fronts[s]->report());
    out->machine_cycles += m.now();
    const serve::FrontEndCounters& counters = out->fronts.back().counters;
    if (!observed) {
      // No spans name the completed requests, so check every offered one;
      // a pass that shed or stranded requests has failed already.
      if (counters.shed == 0 && counters.in_flight == 0) {
        for (uint64_t i = 0; i < counters.offered; ++i) {
          const int index = static_cast<int>(i);
          if (chase.ReadResult(m.memory(), index) != chase.ExpectedResult(index)) {
            ++out->wrong;
          }
        }
      }
      continue;
    }
    const yh::Status exact = spans[s]->VerifyExactness();
    const yh::Status ex_exact = exemplars[s]->VerifyExactness();
    if (!exact.ok() || !ex_exact.ok()) {
      return yh::InternalError("span/exemplar exactness broken: " + exact.ToString() +
                               " " + ex_exact.ToString());
    }
    // The profiler partitions every cycle from its run anchor to the shard's
    // final clock (the front end's pre-run idle advance lies before it).
    uint64_t classified = 0;
    for (uint64_t c : profilers[s]->class_totals()) classified += c;
    if (classified != profilers[s]->classified_cycles() ||
        classified != m.now() - profilers[s]->run_begin_cycle()) {
      return yh::InternalError("cycle profiler classes do not sum to total cycles");
    }
    out->modeled_overhead_cycles += profilers[s]->TotalOverheadCycles();
    for (const obs::RequestSpan& span : spans[s]->completed()) {
      if (span.tenant == "fg") {
        out->fg_latencies.push_back(span.latency());
      }
      const int index = static_cast<int>(span.id);
      if (chase.ReadResult(m.memory(), index) != chase.ExpectedResult(index)) {
        ++out->wrong;
      }
    }
  }
  if (observed) {
    out->trace_events = trace.recorded();
    out->modeled_overhead_cycles += trace.TotalOverheadCycles();
  }
  out->cpu_ns = CpuNs() - start;
  return yh::Status::Ok();
}

// Ledgers, completion and result checks shared by every pass.
void CheckPass(const ServePass& pass, bool observed, Report& report) {
  for (const serve::FrontEndReport& f : pass.fronts) {
    report.Check(f.ConservationHolds(), "front-end conservation ledger broken");
    report.Check(f.TenantLedgersConsistent(), "tenant ledgers inconsistent");
  }
  const uint64_t completed = pass.Completed(0) + pass.Completed(1);
  report.Attempted(pass.Offered(0) + pass.Offered(1));
  report.Failed(pass.Shed(0) + pass.Shed(1), "requests shed at admission");
  report.Failed(pass.InFlight(), "requests never completed");
  report.Failed(pass.wrong, "request result != ExpectedResult");
  report.Check(!observed || pass.fg_latencies.size() == pass.Completed(0),
               "foreground spans disagree with the foreground ledger");
  report.Check(completed > 0, "no request completed");
}


// Per-layer rows of the serving modules. Default-constructed = not reached.
struct ServingRows {
  double dm_bursts = 0, dm_starved = 0, dm_spawned = 0, dm_occupancy = 0;
  double poll_ns = 0, poll_calls = 0, supply_ns = 0;
  double fg_offered = 0, fg_shed = 0, fg_completed = 0;
  double bg_offered = 0, bg_shed = 0, bg_completed = 0;
  double group_ns = 0, epochs = 0, rebuilds = 0, installs = 0, canaries = 0;
  double rollbacks = 0, samples_accepted = 0, sampling_overhead_cycles = 0;
  double host_overhead_frac = 0, trace_events = 0, modeled_overhead_cycles = 0;
  double divergence_rebuilds = 0, divergence_p99_ratio = 0;
};

void ReportServingRows(Report& report, const ServingRows& r) {
  report.Metric("runtime.dm.bursts", r.dm_bursts, "count");
  report.Metric("runtime.dm.burst_occupancy", r.dm_occupancy, "ratio");
  report.Metric("runtime.dm.bursts_starved", r.dm_starved, "count");
  report.Metric("runtime.dm.scavengers_spawned", r.dm_spawned, "count");
  report.Metric("serve.poll_ns", r.poll_ns, "ns");
  report.Metric("serve.poll_calls", r.poll_calls, "count");
  report.Metric("serve.supply_ns", r.supply_ns, "ns");
  report.Metric("serve.fg.offered", r.fg_offered, "count");
  report.Metric("serve.fg.shed", r.fg_shed, "count");
  report.Metric("serve.fg.completed", r.fg_completed, "count");
  report.Metric("serve.bg.offered", r.bg_offered, "count");
  report.Metric("serve.bg.shed", r.bg_shed, "count");
  report.Metric("serve.bg.completed", r.bg_completed, "count");
  report.Metric("adapt.group_ns", r.group_ns, "ns");
  report.Metric("adapt.epochs", r.epochs, "count");
  report.Metric("adapt.rebuilds", r.rebuilds, "count");
  report.Metric("adapt.installs", r.installs, "count");
  report.Metric("adapt.canaries", r.canaries, "count");
  report.Metric("adapt.rollbacks", r.rollbacks, "count");
  report.Metric("adapt.samples_accepted", r.samples_accepted, "count");
  report.Metric("adapt.sampling_overhead_cycles", r.sampling_overhead_cycles, "cycles");
  report.Metric("obs.host_overhead_frac", r.host_overhead_frac, "ratio");
  report.Metric("obs.trace_events", r.trace_events, "count");
  report.Metric("obs.modeled_overhead_cycles", r.modeled_overhead_cycles, "cycles");
  report.Metric("obs.divergence.rebuilds", r.divergence_rebuilds, "count");
  report.Metric("obs.divergence.p99_ratio", r.divergence_p99_ratio, "ratio");
}

void PrintDivergenceRow(const char* name, const ServePass& pass) {
  std::printf("    %-22s rebuilds %3d  rollbacks %3d  shed %5llu  fg p99 %10llu cycles\n",
              name, pass.group.rebuilds, pass.group.rollbacks,
              static_cast<unsigned long long>(pass.Shed(0) + pass.Shed(1)),
              static_cast<unsigned long long>(pass.HistogramFgP99()));
}

yh::Status RunTraced(ServeSetup& setup, const std::string& run_id, Report& report) {
  Tracer& tracer = GlobalTracer();
  PipelineSteps steps;
  tracer.Enable(true);
  tracer.SetRun(run_id + "/setup-build");
  YH_ASSIGN_OR_RETURN(core::PipelineArtifacts stepwise,
                      BuildStepwise(*setup.twin, setup.pipeline, &steps));
  tracer.Enable(false);
  report.Check(SameBinary(stepwise.binary, setup.stale->binary),
               "stepwise serve build differs from BuildInstrumentedForWorkload");

  ServePass plain, detached, free_capture, traced;
  YH_RETURN_IF_ERROR(RunServePass(setup, 0, Observers::kAll, false, nullptr, nullptr, &plain));
  YH_RETURN_IF_ERROR(
      RunServePass(setup, 0, Observers::kNone, false, nullptr, nullptr, &detached));
  YH_RETURN_IF_ERROR(
      RunServePass(setup, 0, Observers::kAllFreeCapture, false, nullptr, nullptr, &free_capture));
  ServeLayers layers;
  std::vector<EventRecorder> recorders(kShards);
  tracer.Enable(true);
  tracer.SetRun(run_id + "/traced");
  YH_RETURN_IF_ERROR(RunServePass(setup, 0, Observers::kAll, false, &layers, &recorders, &traced));
  tracer.SetRun(run_id + "/replay");
  ReplayResult replay;
  HierStats live;
  uint64_t pages = 0;
  for (size_t s = 0; s < kShards; ++s) {
    Accumulate(replay, Replay(recorders[s], setup.pipeline.machine.hierarchy,
                              setup.machines[s]->memory()));
    AddStats(live, setup.machines[s]->hierarchy().stats());
    pages += setup.machines[s]->memory().resident_pages();
  }
  tracer.Enable(false);

  CheckPass(plain, true, report);
  CheckPass(detached, false, report);
  CheckPass(free_capture, true, report);
  CheckPass(traced, true, report);
  report.Check(plain.SimKey() == traced.SimKey(),
               "traced run's simulated plane differs from the untraced run");

  std::printf("  observer divergence (same seed, same arrivals):\n");
  PrintDivergenceRow("observers attached", plain);
  PrintDivergenceRow("observers detached", detached);
  PrintDivergenceRow("attached, free capture", free_capture);

  ReportSimLayer(report, plain.Instructions(), plain.run_ns, live, replay, pages);
  uint64_t yields = 0, stall = 0, switches = 0, cycles = 0;
  ServingRows rows;
  for (const adapt::AdaptReport& shard : plain.group.shards) {
    yields += shard.run.run.yields;
    stall += shard.run.run.stall_cycles;
    switches += shard.run.run.switch_cycles;
    cycles += shard.run.run.total_cycles;
    rows.dm_bursts += static_cast<double>(shard.run.bursts);
    rows.dm_occupancy += static_cast<double>(shard.run.burst_busy_cycles);
    rows.dm_starved += static_cast<double>(shard.run.bursts_starved);
    rows.dm_spawned += static_cast<double>(shard.run.scavengers_spawned);
    rows.samples_accepted += static_cast<double>(shard.samples_accepted);
    rows.sampling_overhead_cycles += static_cast<double>(shard.sampling_overhead_cycles);
  }
  const double window = GroupConfig(setup, false).shard.dual.hide_window_cycles;
  rows.dm_occupancy = rows.dm_bursts == 0 ? 0.0 : rows.dm_occupancy / (rows.dm_bursts * window);
  ReportRuntimeLayer(report, yields, stall, switches, cycles);
  ReportPipelineLayer(report, steps);

  rows.poll_ns = static_cast<double>(layers.poll_ns);
  rows.poll_calls = static_cast<double>(layers.poll_calls);
  rows.supply_ns = static_cast<double>(layers.supply_ns);
  rows.fg_offered = static_cast<double>(plain.Offered(0));
  rows.fg_shed = static_cast<double>(plain.Shed(0));
  rows.fg_completed = static_cast<double>(plain.Completed(0));
  rows.bg_offered = static_cast<double>(plain.Offered(1));
  rows.bg_shed = static_cast<double>(plain.Shed(1));
  rows.bg_completed = static_cast<double>(plain.Completed(1));
  rows.group_ns = static_cast<double>(traced.run_ns - layers.poll_ns - layers.supply_ns);
  rows.epochs = static_cast<double>(plain.group.group_epochs);
  rows.rebuilds = plain.group.rebuilds;
  rows.installs = plain.group.installs;
  rows.canaries = plain.group.canaries;
  rows.rollbacks = plain.group.rollbacks;
  rows.host_overhead_frac =
      static_cast<double>(plain.cpu_ns) / static_cast<double>(detached.cpu_ns) - 1.0;
  rows.trace_events = static_cast<double>(plain.trace_events);
  rows.modeled_overhead_cycles = static_cast<double>(plain.modeled_overhead_cycles);
  rows.divergence_rebuilds = plain.group.rebuilds - detached.group.rebuilds;
  rows.divergence_p99_ratio = static_cast<double>(plain.HistogramFgP99()) /
                              static_cast<double>(detached.HistogramFgP99());
  ReportServingRows(report, rows);
  ReportTraceRows(report, traced.cpu_ns, plain.cpu_ns);
  return yh::Status::Ok();
}

}  // namespace

void ReportIdleServingLayers(Report& report) { ReportServingRows(report, ServingRows{}); }

yh::Status RunServe(const Options& options, Report& report) {
  const std::string run_id = "serve/seed" + std::to_string(options.seed);
  GlobalTracer().SetRun(run_id + "/setup");
  HostSamples host;
  std::optional<ServeSetup> setup;
  const int setups = options.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    NextCpu();
    const double scale = SpeedScale();
    host.scale.push_back(scale);
    setup.reset();
    const uint64_t t0 = CpuNs();
    double built_ms = 0.0;
    YH_ASSIGN_OR_RETURN(ServeSetup made, MakeSetup(options.seed, &built_ms));
    setup.emplace(std::move(made));
    host.setup_s.push_back(static_cast<double>(CpuNs() - t0) / 1e9 / scale);
    host.build_ms.push_back(built_ms / scale);
  }
  if (options.trace) {
    return RunTraced(*setup, run_id, report);
  }

  // Timed phase: one pass per arrival stream, each on the next CPU, streams
  // 0..kStreams-1 and then round again until the time is up. The simulated
  // plane comes from the first round (every run of a seed makes the same
  // one); a repeated stream must reproduce it exactly.
  {
    ServePass warm;  // untimed: page faults on fresh state land outside
    YH_RETURN_IF_ERROR(
        RunServePass(*setup, 0, Observers::kAll, false, nullptr, nullptr, &warm));
  }
  std::vector<ServePass> passes;
  const double deadline = WallSeconds() + options.seconds;
  for (int i = 0; i < kStreams || WallSeconds() < deadline; ++i) {
    NextCpu();
    ServePass pass;
    pass.scale = SpeedScale();
    YH_RETURN_IF_ERROR(
        RunServePass(*setup, i % kStreams, Observers::kAll, false, nullptr, nullptr, &pass));
    CheckPass(pass, true, report);
    if (i >= kStreams) {
      report.Check(passes[i % kStreams].SimKey() == pass.SimKey(),
                   "stream " + std::to_string(i % kStreams) + " simulated plane differs");
      pass.fg_latencies.clear();
    }
    passes.push_back(std::move(pass));
  }
  // Reference for sim_speedup, outside the timed passes: stream 0 served by
  // the uninstrumented binary with no scavengers and no adaptation.
  ServePass baseline;
  YH_RETURN_IF_ERROR(
      RunServePass(*setup, 0, Observers::kNone, true, nullptr, nullptr, &baseline));
  report.Failed(baseline.wrong, "baseline request result != ExpectedResult");

  for (const ServePass& pass : passes) {
    const double cpu_s = static_cast<double>(pass.cpu_ns) / 1e9 / pass.scale;
    host.scale.push_back(pass.scale);
    host.minstr_per_s.push_back(static_cast<double>(pass.Instructions()) / 1e6 / cpu_s);
    host.req_per_s.push_back(static_cast<double>(pass.Completed(0) + pass.Completed(1)) / cpu_s);
  }
  std::vector<double> fg_p50, fg_p99;
  size_t fg_samples = 0;
  double completed = 0, busy = 0, bg_completed = 0, machine_cycles = 0;
  int rebuilds = 0, installs = 0, canaries = 0, rollbacks = 0;
  for (int k = 0; k < kStreams; ++k) {
    const ServePass& pass = passes[k];
    fg_p50.push_back(static_cast<double>(Percentile(pass.fg_latencies, 0.50)));
    fg_p99.push_back(static_cast<double>(Percentile(pass.fg_latencies, 0.99)));
    fg_samples += pass.fg_latencies.size();
    report.Check(pass.fg_latencies.size() >= 1000,
                 "fewer than 1000 foreground completions for p99 on a stream");
    completed += static_cast<double>(pass.Completed(0) + pass.Completed(1));
    busy += static_cast<double>(pass.BusyCycles());
    bg_completed += static_cast<double>(pass.Completed(1));
    machine_cycles += static_cast<double>(pass.machine_cycles);
    rebuilds += pass.group.rebuilds;
    installs += pass.group.installs;
    canaries += pass.group.canaries;
    rollbacks += pass.group.rollbacks;
  }
  const double inst_cpr = busy / completed;
  const double base_cpr =
      static_cast<double>(baseline.BusyCycles()) /
      static_cast<double>(baseline.Completed(0) + baseline.Completed(1));
  const double stream0_cpr = static_cast<double>(passes[0].BusyCycles()) /
                             static_cast<double>(passes[0].Completed(0) + passes[0].Completed(1));
  std::printf("  passes: %zu over %d arrival streams, setups: %zu\n", passes.size(), kStreams,
              host.setup_s.size());
  std::printf("  busy cycles/request on stream 0: baseline %.0f, instrumented %.0f\n",
              base_cpr, stream0_cpr);
  std::printf("  first round: rebuilds %d, installs %d, canaries %d, rollbacks %d\n", rebuilds,
              installs, canaries, rollbacks);
  std::printf("  foreground latency samples: %zu over %d streams (cycles from due time)\n",
              fg_samples, kStreams);
  std::printf("  foreground p99 per stream:");
  for (double p : fg_p99) std::printf(" %.0f", p);
  std::printf("\n");
  ReportHostPlane(report, host);
  report.Metric("sim_cycles_per_op", inst_cpr, "cycles");
  report.Metric("sim_speedup", base_cpr / stream0_cpr, "x");
  report.Metric("sim_p50_cycles", Median(fg_p50), "cycles");
  report.Metric("sim_p99_cycles", Median(fg_p99), "cycles");
  report.Metric("sim_bg_per_mcycle", bg_completed / (machine_cycles / 1e6), "1/Mcycle");
  ReportOutcome(report);
  return yh::Status::Ok();
}

}  // namespace perfbench
