// O3 — request-scoped span attribution: exactness, reconciliation against
// the cycle profiler, and the price of watching (docs/OBSERVABILITY.md).
//
// O2 proved the CYCLE taxonomy is a partition of elapsed time; this bench
// proves the REQUEST taxonomy is a partition of every request's latency and
// that the two accountings agree to the cycle. An open-loop ServerGroup
// (two shards, seeded Poisson arrivals, scavengers serving queued requests)
// runs a load sweep with a SpanCollector, SloEvaluator, and CycleProfiler
// attached per shard; a mid-sweep point turns on adaptation + the guard and
// injects a kRegression serving fault, so the spans are verified THROUGH a
// canary rollback — requeues, freeze windows, and a reinstalled generation
// included.
//
// Gates:
//   * exact: at every sweep point, every completed request's span classes
//     sum to its measured end-to-end latency (SpanCollector::VerifyExactness,
//     zero attribution anomalies), and the front-end conservation ledger
//     holds;
//   * reconcile: per shard, span kExecPrimary equals the profiler's
//     issue_useful + prefetch_overhead + quarantine_loss, and span
//     kStallExposed equals the profiler's stall_exposed — same stream, two
//     taxonomies, equal to the cycle;
//   * partition: the profiler classifies every elapsed cycle (the O2
//     identity, re-proven here across a rollback), its per-epoch slices are
//     cumulative-monotone (a reinstalled generation must not double-count or
//     reset), and the epoch deltas telescope back to the slice totals;
//   * rollback: the fault-injected point actually arms a canary and rolls it
//     back — the exactness gates above are meaningless if the control plane
//     never interfered;
//   * overhead: watching is priced, not free — enabled spans+SLO+trace cost
//     <= 1.05x the bare run in simulated cycles, attached-but-disabled
//     <= 1.01x;
//   * determinism: rerunning the rollback point reproduces every span class
//     total, profiler class total, SLO counter, and latency quantile exactly.
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/faultinject/serving_faults.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/scenario/scenario.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kShards = 2;
constexpr int kTasksPerEpoch = 8;
constexpr uint64_t kChaseNodes = 1 << 16;
constexpr uint64_t kChaseSteps = 300;
constexpr uint64_t kSeed = 11;
constexpr uint64_t kQueueCapacity = 32;
constexpr double kEnabledCeiling = 1.05;
constexpr double kDisabledCeiling = 1.01;

// What observability rides along: the profiler is ALWAYS attached (it is the
// reconciliation reference and its overhead was gated by O1), the mode varies
// only what this layer adds — spans + SLO + their trace stream.
enum class SpanMode { kNone, kDisabled, kEnabled };

struct PointSpec {
  double rate = 0.02;           // arrivals per kcycle, per shard
  uint64_t duration = 1'000'000;  // arrival horizon, cycles
  bool adapt = false;           // adaptation + guard + kRegression fault
};

// Simulated cycles across shards at drain.
uint64_t TotalCycles(const scenario::Outcome& outcome) {
  uint64_t total = 0;
  for (const auto& machine : outcome.machines) {
    total += machine->now();
  }
  return total;
}

// One sweep point on two shards. Exactness, the front-end status and the
// conservation ledgers are verified inside scenario::Run: a broken point is a
// failed run.
Result<scenario::Outcome> RunPoint(const workloads::PhasedChase& chase,
                                   const core::PipelineArtifacts& artifacts,
                                   const core::PipelineConfig& pipeline,
                                   const PointSpec& point, SpanMode mode) {
  scenario::Spec spec;
  spec.workload = &chase;
  spec.initial = &artifacts;
  spec.group.shards = kShards;
  spec.group.shard.controller.pipeline = pipeline;
  spec.group.shard.tasks_per_epoch = kTasksPerEpoch;
  spec.group.shard.adapt_enabled = point.adapt;
  spec.group.shard.scale_pool = point.adapt;
  spec.group.shard.dual.max_scavengers = 4;
  spec.group.shard.dual.hide_window_cycles = 300;
  if (point.adapt) {
    spec.group.guard.enabled = true;
    spec.group.guard.confirmation_window = 2;
    spec.group.guard.consult_slo = true;
    faultinject::FaultSpec fault;
    fault.fault = faultinject::FaultClass::kRegression;
    fault.severity = 1.0;
    YH_ASSIGN_OR_RETURN(
        spec.group.fault_hooks,
        faultinject::MakeServingFaultHooks(
            {fault}, static_cast<isa::Addr>(chase.program().size())));
  }
  spec.load.open_loop = true;
  spec.front_end.arrival.rate_per_kcycle = point.rate;
  spec.front_end.arrival.horizon_cycles = point.duration;
  spec.front_end.queue_capacity = kQueueCapacity;
  spec.seed = kSeed;

  spec.observers.profiler = obs::CycleProfilerConfig{};
  if (mode != SpanMode::kNone) {
    obs::SpanCollectorConfig spans;
    spans.enabled = mode == SpanMode::kEnabled;
    spec.observers.spans = spans;
    obs::SloConfig slo;
    slo.enabled = mode == SpanMode::kEnabled;
    spec.observers.slo = slo;
    // Spans and SLO alerts only: the bench counts what flows through the
    // small-ring stream `yhc spans --perfetto` renders.
    spec.observers.span_trace_guard = false;
  }
  return scenario::Run(spec);
}

uint64_t SpanTotal(const obs::SpanCollector& spans, obs::SpanClass cls) {
  uint64_t totals[obs::kNumSpanClasses];
  spans.AggregateTotals(totals, /*include_active=*/true);
  return totals[static_cast<size_t>(cls)];
}

// Gate 2 per shard: the span view and the profiler view of the SAME primary
// execution stream must agree exactly.
bool Reconciles(const obs::SpanCollector& spans,
                const obs::CycleProfiler& profiler, std::string* detail) {
  const auto ct = profiler.class_totals();
  const uint64_t prof_exec =
      ct[static_cast<size_t>(obs::CycleClass::kIssueUseful)] +
      ct[static_cast<size_t>(obs::CycleClass::kPrefetchOverhead)] +
      ct[static_cast<size_t>(obs::CycleClass::kQuarantineLoss)];
  const uint64_t prof_stall =
      ct[static_cast<size_t>(obs::CycleClass::kStallExposed)];
  const uint64_t span_exec = SpanTotal(spans, obs::SpanClass::kExecPrimary);
  const uint64_t span_stall = SpanTotal(spans, obs::SpanClass::kStallExposed);
  *detail = StrFormat("exec %s==%s stall %s==%s",
                      WithCommas(span_exec).c_str(),
                      WithCommas(prof_exec).c_str(),
                      WithCommas(span_stall).c_str(),
                      WithCommas(prof_stall).c_str());
  return span_exec == prof_exec && span_stall == prof_stall;
}

// Gate 3 per shard: the profiler's taxonomy partitions every cycle from its
// BeginRun anchor to the shard's final clock (the O2 identity — the front
// end's pre-run idle advance is the only time outside the anchor) and its
// epoch slices are consistent cumulative snapshots of it.
bool PartitionHolds(const obs::CycleProfiler& profiler, uint64_t run_cycles,
                    bool expect_epochs, std::string* detail) {
  const auto ct = profiler.class_totals();
  uint64_t classified = 0;
  for (const uint64_t c : ct) {
    classified += c;
  }
  bool ok = classified == profiler.classified_cycles() &&
            profiler.classified_cycles() == run_cycles;
  const auto& slices = profiler.epoch_slices();
  if (expect_epochs && slices.size() < 2) {
    ok = false;
  }
  std::array<uint64_t, obs::kNumCycleClasses> delta_sum{};
  for (size_t i = 0; i < slices.size(); ++i) {
    const auto delta = profiler.EpochDelta(i);
    for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
      delta_sum[c] += delta[c];
      if (i > 0 &&
          slices[i].class_totals[c] < slices[i - 1].class_totals[c]) {
        ok = false;  // a reinstall reset or double-counted a class
      }
    }
  }
  for (size_t c = 0; c < obs::kNumCycleClasses && !slices.empty(); ++c) {
    if (delta_sum[c] != slices.back().class_totals[c]) {
      ok = false;  // epoch deltas must telescope back to the totals
    }
    if (slices.back().class_totals[c] > ct[c]) {
      ok = false;  // a snapshot can never exceed the final total
    }
  }
  *detail = StrFormat("classified %s of %s over %zu epoch slices",
                      WithCommas(profiler.classified_cycles()).c_str(),
                      WithCommas(run_cycles).c_str(), slices.size());
  return ok;
}

bool SameOutcome(const scenario::Outcome& a, const scenario::Outcome& b) {
  if (a.report.rollbacks != b.report.rollbacks ||
      a.report.canaries != b.report.canaries ||
      a.span_events.size() != b.span_events.size()) {
    return false;
  }
  for (size_t s = 0; s < kShards; ++s) {
    uint64_t ta[obs::kNumSpanClasses], tb[obs::kNumSpanClasses];
    a.spans[s]->AggregateTotals(ta, true);
    b.spans[s]->AggregateTotals(tb, true);
    for (size_t c = 0; c < obs::kNumSpanClasses; ++c) {
      if (ta[c] != tb[c]) {
        return false;
      }
    }
    if (a.spans[s]->completed_count() != b.spans[s]->completed_count() ||
        a.profilers[s]->class_totals() != b.profilers[s]->class_totals() ||
        a.slos[s]->total() != b.slos[s]->total() ||
        a.slos[s]->bad() != b.slos[s]->bad() ||
        a.slos[s]->alerts_fired() != b.slos[s]->alerts_fired() ||
        a.front_ends[s].counters.offered != b.front_ends[s].counters.offered ||
        a.front_ends[s].counters.shed != b.front_ends[s].counters.shed ||
        a.front_ends[s].counters.completed != b.front_ends[s].counters.completed ||
        a.front_ends[s].latency.P50() != b.front_ends[s].latency.P50() ||
        a.front_ends[s].latency.P99() != b.front_ends[s].latency.P99() ||
        a.front_ends[s].latency.ValueAtQuantile(0.999) !=
            b.front_ends[s].latency.ValueAtQuantile(0.999) ||
        a.machines[s]->now() != b.machines[s]->now()) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("O3", "span exactness, profiler reconciliation, and the price of watching");
  JsonWriter json("O3", argc, argv);
  bool all_pass = true;

  // One binary for the whole sweep: yesterday's phase-A profile serving
  // today's drifted service — the adapt point has a real reason to rebuild,
  // the steady points just serve it as-is.
  workloads::PhasedChase::Config yesterday;
  yesterday.num_nodes = kChaseNodes;
  yesterday.steps_per_task = kChaseSteps;
  yesterday.severity = 0.0;
  auto chase_yesterday = workloads::PhasedChase::Make(yesterday).value();
  const auto pipeline = BenchPipeline();
  auto stale = core::BuildInstrumentedForWorkload(chase_yesterday, pipeline);
  if (!stale.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n",
                 stale.status().ToString().c_str());
    return 2;
  }
  workloads::PhasedChase::Config today = yesterday;
  today.severity = 1.0;
  today.flip_task_index = 0;
  auto chase = workloads::PhasedChase::Make(today).value();

  // ---------- load sweep, rollback mid-sweep ------------------------------
  const std::vector<PointSpec> sweep = {
      {/*rate=*/0.01, /*duration=*/1'000'000, /*adapt=*/false},
      {/*rate=*/0.02, /*duration=*/5'000'000, /*adapt=*/true},
      {/*rate=*/0.04, /*duration=*/1'000'000, /*adapt=*/false},
  };
  Table table({"rate", "adapt", "completed", "exact", "reconcile", "partition",
               "ledger", "verdict"});
  table.PrintHeader();
  std::unique_ptr<scenario::Outcome> rollback_point;
  for (const PointSpec& spec : sweep) {
    auto run = RunPoint(chase, *stale, pipeline, spec, SpanMode::kEnabled);
    // Exactness and ledger failures surface here: they are a Status, not a
    // score, so a broken point is a failed run, not a degraded row.
    if (!run.ok()) {
      std::fprintf(stderr, "sweep point rate=%.3f failed: %s\n", spec.rate,
                   run.status().ToString().c_str());
      table.PrintRow({Fmt("%.3f", spec.rate), spec.adapt ? "guard" : "-", "-",
                      "BROKEN", "-", "-", "-", "FAIL"});
      all_pass = false;
      continue;
    }
    uint64_t completed = 0;
    bool reconcile_ok = true, partition_ok = true;
    std::string reconcile_detail, partition_detail;
    for (size_t s = 0; s < kShards; ++s) {
      completed += run->spans[s]->completed_count();
      reconcile_ok = reconcile_ok &&
                     Reconciles(*run->spans[s], *run->profilers[s],
                                &reconcile_detail);
      partition_ok = partition_ok &&
                     PartitionHolds(*run->profilers[s],
                                    run->machines[s]->now() -
                                        run->profilers[s]->run_begin_cycle(),
                                    /*expect_epochs=*/spec.adapt,
                                    &partition_detail);
    }
    bool point_ok = reconcile_ok && partition_ok;
    if (spec.adapt) {
      const bool rolled = run->report.rollbacks >= 1 && run->report.canaries >= 1;
      point_ok = point_ok && rolled;
      std::printf("  rollback point: canaries=%d rollbacks=%d slo_vetoes=%d "
                  "requeued_span_cycles=%s freeze_span_cycles=%s\n",
                  run->report.canaries, run->report.rollbacks,
                  run->report.slo_vetoes,
                  WithCommas(SpanTotal(*run->spans[0], obs::SpanClass::kRequeue) +
                             SpanTotal(*run->spans[1], obs::SpanClass::kRequeue))
                      .c_str(),
                  WithCommas(SpanTotal(*run->spans[0], obs::SpanClass::kFreeze) +
                             SpanTotal(*run->spans[1], obs::SpanClass::kFreeze))
                      .c_str());
      if (!rolled) {
        std::printf("  rollback point: no rollback observed (FAIL)\n");
      }
    }
    std::printf("  shard%zu %s; %s\n", kShards - 1, reconcile_detail.c_str(),
                partition_detail.c_str());
    table.PrintRow({Fmt("%.3f", spec.rate), spec.adapt ? "guard" : "-",
                    std::to_string(completed), "ok",
                    reconcile_ok ? "ok" : "BROKEN",
                    partition_ok ? "ok" : "BROKEN",
                    "ok", point_ok ? "pass" : "FAIL"});
    json.Add(StrFormat("sweep_r%.3f", spec.rate),
             {{"rate", spec.rate},
              {"adapt", spec.adapt ? 1.0 : 0.0},
              {"completed", static_cast<double>(completed)},
              {"rollbacks", static_cast<double>(run->report.rollbacks)},
              {"reconcile", reconcile_ok ? 1.0 : 0.0},
              {"partition", partition_ok ? 1.0 : 0.0},
              {"ledger", 1.0},
              {"pass", point_ok ? 1.0 : 0.0}});
    all_pass = all_pass && point_ok;
    if (spec.adapt) {
      rollback_point =
          std::make_unique<scenario::Outcome>(std::move(run).value());
    }
  }

  // ---------- the price of watching ---------------------------------------
  // Same point, three builds of the observability stack; the ratio is over
  // SIMULATED cycles, so the modeled span/SLO/trace costs are what is priced.
  const PointSpec price_spec{/*rate=*/0.02, /*duration=*/1'000'000, false};
  auto bare = RunPoint(chase, *stale, pipeline, price_spec, SpanMode::kNone);
  auto off = RunPoint(chase, *stale, pipeline, price_spec, SpanMode::kDisabled);
  auto on = RunPoint(chase, *stale, pipeline, price_spec, SpanMode::kEnabled);
  if (!bare.ok() || !off.ok() || !on.ok()) {
    std::fprintf(stderr, "overhead runs failed\n");
    return 2;
  }
  const double enabled_ratio = static_cast<double>(TotalCycles(*on)) /
                               static_cast<double>(TotalCycles(*bare));
  const double disabled_ratio = static_cast<double>(TotalCycles(*off)) /
                                static_cast<double>(TotalCycles(*bare));
  const bool overhead_ok = enabled_ratio <= kEnabledCeiling &&
                           disabled_ratio <= kDisabledCeiling;
  all_pass = all_pass && overhead_ok;
  std::printf("\n  overhead: bare=%s cycles, disabled=%.4fx (<= %.2fx), "
              "enabled=%.4fx (<= %.2fx), %s span events -> %s\n",
              WithCommas(TotalCycles(*bare)).c_str(), disabled_ratio,
              kDisabledCeiling, enabled_ratio, kEnabledCeiling,
              WithCommas(on->span_events.size()).c_str(),
              overhead_ok ? "pass" : "FAIL");
  json.Add("overhead", {{"bare_cycles", static_cast<double>(TotalCycles(*bare))},
                        {"disabled_ratio", disabled_ratio},
                        {"enabled_ratio", enabled_ratio},
                        {"span_events", static_cast<double>(on->span_events.size())},
                        {"pass", overhead_ok ? 1.0 : 0.0}});

  // ---------- determinism -------------------------------------------------
  // The HARD point to reproduce: rerun the rollback run and require every
  // span class total, profiler class total, SLO counter, latency quantile,
  // and the drained event count to come back bit-identical.
  bool deterministic = false;
  if (rollback_point != nullptr) {
    auto rerun = RunPoint(chase, *stale, pipeline, sweep[1], SpanMode::kEnabled);
    if (rerun.ok()) {
      deterministic = SameOutcome(*rollback_point, rerun.value());
    } else {
      std::fprintf(stderr, "determinism rerun failed: %s\n",
                   rerun.status().ToString().c_str());
    }
  }
  all_pass = all_pass && deterministic;
  std::printf("  determinism: rollback-point rerun %s\n",
              deterministic ? "bit-identical (pass)" : "DIVERGED (FAIL)");
  json.Add("gates", {{"overhead", overhead_ok ? 1.0 : 0.0},
                     {"deterministic", deterministic ? 1.0 : 0.0}});

  std::printf(
      "\nReading: every request's latency is partitioned into named spans —\n"
      "queue wait, primary issue, exposed vs hidden stall, scavenger slots,\n"
      "control-plane freezes — and the partition is exact per request AND\n"
      "equal, class by class, to the cycle profiler's independent accounting,\n"
      "even through a canary rollback. The watching itself is on the same\n"
      "clock: enabled costs show up in the ratio and stay under the ceiling.\n");
  json.Flush();
  if (!all_pass) {
    std::printf("\nO3: GATE VIOLATED\n");
    return 1;
  }
  std::printf("\nO3: all gates pass\n");
  return 0;
}
