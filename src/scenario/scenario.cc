#include "src/scenario/scenario.h"

#include <utility>

#include "src/common/strings.h"
#include "src/obs/labels.h"

namespace yieldhide::scenario {
namespace {

// Span-trace ring: small on purpose, so the exported stream comes from the
// flush-on-half-full drain rather than a post-run snapshot.
constexpr size_t kSpanTraceCapacity = 1 << 12;

// Closed-loop scavengers without a batch binary draw workload requests from
// this far apart per shard, past every pre-loaded task.
constexpr int kScavengerIndexStride = 100000;

Status ShardError(size_t shard, const Status& status) {
  return Status(status.code(),
                StrFormat("shard %zu: %s", shard, status.message().c_str()));
}

}  // namespace

Result<Outcome> Run(const Spec& spec) {
  if (spec.workload == nullptr || spec.initial == nullptr) {
    return InvalidArgumentError(
        "scenario needs a workload and an initial build");
  }
  const Observers& observers = spec.observers;
  if (observers.spans.has_value() && observers.trace != nullptr) {
    return InvalidArgumentError(
        "span observers stream through their own trace; attach no other");
  }
  const workloads::SimWorkload& workload = *spec.workload;
  const size_t shards = spec.group.shards;
  const Load& load = spec.load;

  Outcome out;
  std::vector<sim::Machine*> machines;
  for (size_t s = 0; s < shards; ++s) {
    out.machines.push_back(std::make_unique<sim::Machine>(
        spec.group.shard.controller.pipeline.machine));
    workload.InitMemory(out.machines.back()->memory());
    machines.push_back(out.machines.back().get());
  }

  std::unique_ptr<obs::TraceRecorder> span_trace;
  if (observers.spans.has_value()) {
    obs::TraceConfig trace_config;
    trace_config.capacity = kSpanTraceCapacity;
    trace_config.mask = obs::kTraceSpan | obs::kTraceSlo |
                        (observers.span_trace_guard ? obs::kTraceGuard : 0u);
    span_trace = std::make_unique<obs::TraceRecorder>(trace_config);
    span_trace->SetSink([events = &out.span_events](
                            const obs::TraceEvent& event) {
      events->push_back(event);
    });
  }
  obs::TraceRecorder* trace =
      span_trace != nullptr ? span_trace.get() : observers.trace;

  // Declared before the group, which points at them until it is destroyed.
  std::vector<std::unique_ptr<serve::ShardFrontEnd>> fronts;
  std::vector<std::unique_ptr<obs::SloEvaluator>> tenant_slos;
  adapt::ServerGroup group(&workload.program(), *spec.initial, machines,
                           spec.group);
  group.SetObservability(trace, observers.metrics);

  for (size_t s = 0; s < shards; ++s) {
    if (observers.profiler.has_value()) {
      out.profilers.push_back(
          std::make_unique<obs::CycleProfiler>(*observers.profiler));
      group.SetProfiler(s, out.profilers.back().get());
    }
    obs::SpanCollector* spans = nullptr;
    if (observers.spans.has_value()) {
      out.spans.push_back(
          std::make_unique<obs::SpanCollector>(*observers.spans));
      spans = out.spans.back().get();
      spans->SetTrace(trace);
      group.SetSpanCollector(s, spans);
    }
    if (observers.exemplars.has_value() && spans != nullptr) {
      out.exemplars.push_back(
          std::make_unique<obs::ExemplarReservoir>(*observers.exemplars));
      spans->SetExemplars(out.exemplars.back().get());
      group.SetExemplar(s, out.exemplars.back().get());
    }
    obs::SloEvaluator* slo = nullptr;
    if (observers.slo.has_value()) {
      out.slos.push_back(std::make_unique<obs::SloEvaluator>(*observers.slo));
      slo = out.slos.back().get();
      slo->SetTrace(trace, static_cast<int32_t>(s));
      group.SetSloEvaluator(s, slo);
    }

    if (!load.open_loop) {
      const int n = load.tasks_per_shard;
      const int first = load.first_task + static_cast<int>(s) * n;
      for (int i = 0; i < n; ++i) {
        group.AddTask(s, workload.SetupFor(first + i));
      }
      if (load.scavenger_binary != nullptr) {
        group.SetScavengerBinary(s, load.scavenger_binary);
        group.SetScavengerFactory(s, load.scavenger_factory);
      } else {
        int extra = load.first_task + static_cast<int>(shards) * n +
                    static_cast<int>(s) * kScavengerIndexStride;
        group.SetScavengerFactory(
            s, [&workload, extra]() mutable
                   -> std::optional<runtime::DualModeScheduler::ContextSetup> {
              return workload.SetupFor(extra++);
            });
      }
      continue;
    }

    serve::FrontEndConfig front_end = spec.front_end;
    front_end.arrival.seed = spec.seed + s;  // independent streams per shard
    front_end.id_seed = spec.seed + s;       // namespaced request ids
    YH_RETURN_IF_ERROR(front_end.Validate());
    obs::Labels labels;
    if (shards > 1 && observers.metrics != nullptr) {
      labels = obs::LabelSet().Shard(s).Build();
    }
    fronts.push_back(std::make_unique<serve::ShardFrontEnd>(
        front_end,
        [&workload](uint64_t id) {
          return workload.SetupFor(static_cast<int>(id));
        },
        trace, observers.metrics, std::move(labels)));
    serve::ShardFrontEnd& front = *fronts.back();
    for (size_t t = 0; t < front.tenants().size(); ++t) {
      const serve::TenantSpec& tenant = front.tenants()[t];
      if (spec.stable != nullptr && front.tenants().size() > 1 &&
          !tenant.background()) {
        front.SetTenantHandler(t, [stable = spec.stable](uint64_t id) {
          return stable->SetupFor(static_cast<int>(id));
        });
      }
      // A tenant's own evaluator publishes only metrics, so it rides along
      // only with a registry (its modeled cost lands on the clock).
      if (observers.metrics != nullptr && tenant.p99_budget_cycles > 0) {
        obs::SloConfig tenant_slo;
        tenant_slo.latency_budget_cycles = tenant.p99_budget_cycles;
        tenant_slos.push_back(std::make_unique<obs::SloEvaluator>(tenant_slo));
        front.SetTenantSloEvaluator(t, tenant_slos.back().get());
      }
    }
    if (spans != nullptr) {
      front.SetSpanCollector(spans);
    }
    if (slo != nullptr) {
      front.SetSloEvaluator(slo);
    }
    group.SetRequestSource(s, &front);
    group.SetScavengerFactory(s, front.MakeScavengerFactory());
  }
  if (observers.trace != nullptr && !out.profilers.empty()) {
    if (shards != 1) {
      return InvalidArgumentError(
          "a profiler fed from the trace stream needs exactly one shard");
    }
    observers.trace->SetSink(out.profilers[0]->MakeTraceSink());
  }

  YH_ASSIGN_OR_RETURN(out.report, group.Run());
  if (trace != nullptr) {
    trace->DrainToSink();
  }
  for (size_t s = 0; s < fronts.size(); ++s) {
    // A front end that fails stops offering requests, which the group reads
    // as an exhausted source: its status is the only trace of the failure.
    if (!fronts[s]->status().ok()) {
      return ShardError(s, fronts[s]->status());
    }
    out.front_ends.push_back(fronts[s]->report());
    const serve::FrontEndReport& report = out.front_ends.back();
    if (!report.ConservationHolds() || !report.TenantLedgersConsistent()) {
      return ShardError(s, InternalError("request conservation violated: " +
                                         report.Summary()));
    }
  }
  for (size_t s = 0; s < out.spans.size(); ++s) {
    if (out.spans[s]->enabled()) {
      const Status exact = out.spans[s]->VerifyExactness();
      if (!exact.ok()) {
        return ShardError(s, exact);
      }
    }
    out.spans[s]->SetTrace(nullptr);
  }
  for (size_t s = 0; s < out.exemplars.size(); ++s) {
    if (out.exemplars[s]->enabled()) {
      const Status exact = out.exemplars[s]->VerifyExactness();
      if (!exact.ok()) {
        return ShardError(s, exact);
      }
    }
  }
  for (size_t s = 0; s < out.slos.size(); ++s) {
    out.slos[s]->SetTrace(nullptr, static_cast<int32_t>(s));
  }

  if (!load.open_loop) {
    const int n = load.tasks_per_shard;
    for (size_t s = 0; s < shards; ++s) {
      for (int i = 0; i < n; ++i) {
        const int index = load.first_task + static_cast<int>(s) * n + i;
        if (workload.ReadResult(out.machines[s]->memory(), index) ==
            workload.ExpectedResult(index)) {
          ++out.correct_results;
        }
      }
    }
  }
  out.site_index = group.controller().site_index();
  out.quarantined_generations = group.controller().quarantined_generations();
  return out;
}

obs::DiffEngine BuildDiffEngine(const Outcome& outcome) {
  obs::DiffEngine engine;
  for (size_t s = 0; s < outcome.profilers.size(); ++s) {
    engine.AddShard(outcome.profilers[s].get(), outcome.spans[s].get());
  }
  for (const adapt::GuardEvent& event : outcome.report.guard_log) {
    obs::ControlEvent control;
    control.epoch = event.epoch;
    control.shard = event.shard;
    control.generation_id = event.generation_id;
    switch (event.kind) {
      case adapt::GuardEventKind::kCanaryBegin:
        control.kind = obs::ControlEvent::Kind::kCanaryBegin;
        break;
      case adapt::GuardEventKind::kPromote:
        control.kind = obs::ControlEvent::Kind::kCanaryPromote;
        break;
      case adapt::GuardEventKind::kRollback:
        control.kind = obs::ControlEvent::Kind::kCanaryRollback;
        break;
      case adapt::GuardEventKind::kPoisonBlocked:
        control.kind = obs::ControlEvent::Kind::kPoisonBlocked;
        break;
      case adapt::GuardEventKind::kRebuildRetry:
        control.kind = obs::ControlEvent::Kind::kRebuildRetry;
        break;
      case adapt::GuardEventKind::kWatchdogFire:
        control.kind = obs::ControlEvent::Kind::kWatchdogFire;
        break;
      case adapt::GuardEventKind::kSloVeto:
        control.kind = obs::ControlEvent::Kind::kSloVeto;
        break;
      case adapt::GuardEventKind::kStoreFallback:
        continue;  // load-time artifact, not an epoch-window action
      case adapt::GuardEventKind::kTenantQuarantine:
      case adapt::GuardEventKind::kTenantVeto:
        // Tenant-policy actions: the veto's effect already arrives as the
        // kRollback it forces, and a quarantine changes evidence routing,
        // not the serving generation — neither is a cause on its own.
        continue;
    }
    engine.AddControlEvent(control);
  }
  for (const obs::TraceEvent& event : outcome.span_events) {
    if (event.type != obs::TraceEventType::kSloAlertFire &&
        event.type != obs::TraceEventType::kSloAlertClear) {
      continue;
    }
    obs::ControlEvent control;
    control.kind = event.type == obs::TraceEventType::kSloAlertFire
                       ? obs::ControlEvent::Kind::kSloAlertFire
                       : obs::ControlEvent::Kind::kSloAlertClear;
    control.shard = event.ctx_id >= 0 ? static_cast<size_t>(event.ctx_id) : 0;
    control.cycle = event.cycle;
    auto mapped = engine.EpochForCycle(control.shard, event.cycle);
    if (!mapped.ok()) {
      continue;
    }
    control.epoch = mapped.value();
    engine.AddControlEvent(control);
  }
  return engine;
}

}  // namespace yieldhide::scenario
