// One serving run described as data (docs/ONLINE.md, docs/SERVING.md).
//
// A Spec names what is served (a workload and the build every shard starts
// on), the group and front-end configurations, the load shape, the base seed,
// and which observers ride along. Run builds everything a serving run needs
// from it — one machine per shard with the workload's memory image, the
// ServerGroup, one ShardFrontEnd per shard for open-loop load, the per-shard
// observers — serves, checks the invariants every run must hold, and returns
// the Outcome. `yhc` subcommands and the benches render an Outcome; none of
// them wires a ServerGroup by hand.
#ifndef YIELDHIDE_SRC_SCENARIO_SCENARIO_H_
#define YIELDHIDE_SRC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/obs/diff/diff.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/serve/front_end.h"
#include "src/sim/machine.h"
#include "src/workloads/workload.h"

namespace yieldhide::scenario {

// The load shape.
struct Load {
  // Open loop: requests arrive through one ShardFrontEnd per shard
  // (Spec::front_end); queued requests are the scavenger supply. Closed loop:
  // shard s is pre-loaded with workload tasks [first_task + s * n,
  // first_task + (s + 1) * n), n = tasks_per_shard.
  bool open_loop = false;
  int tasks_per_shard = 0;
  int first_task = 0;
  // Closed-loop scavenger supply. Without a binary, scavengers serve further
  // workload requests on the primary binary and are swapped with it. With
  // one, they run `scavenger_binary` (an unrelated batch job, never swapped)
  // set up by `scavenger_factory`.
  const instrument::InstrumentedProgram* scavenger_binary = nullptr;
  runtime::DualModeScheduler::ScavengerFactory scavenger_factory;
};

// Which observers ride along. The trace recorder and the registry are the
// caller's and shared by every shard; the per-shard observers are built by
// Run from their configs and returned in the Outcome.
struct Observers {
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Cycle profiler per shard. With `trace` attached the profiler is also fed
  // from the trace's streaming sink (one shard only: there is one sink).
  std::optional<obs::CycleProfilerConfig> profiler;
  // Request spans, SLO burn-rate evaluation and tail exemplars per shard.
  // Spans and SLO alerts stream through a span-trace ring Run owns (it takes
  // the place of `trace`, which must then be null); the drained events land
  // in Outcome::span_events.
  std::optional<obs::SpanCollectorConfig> spans;
  std::optional<obs::SloConfig> slo;
  std::optional<obs::ExemplarReservoirConfig> exemplars;
  // The span trace also records guard decisions, so canary windows render
  // over the request timelines.
  bool span_trace_guard = true;
};

struct Spec {
  // What is served: `workload` must outlive Run; `initial` is the offline
  // build every shard starts on. With more than one tenant, foreground
  // tenants serve `stable` when given (the workload the build was profiled
  // on) and background tenants serve `workload`.
  const workloads::SimWorkload* workload = nullptr;
  const workloads::SimWorkload* stable = nullptr;
  const core::PipelineArtifacts* initial = nullptr;

  adapt::ServerGroupConfig group;
  serve::FrontEndConfig front_end;  // open loop only
  Load load;
  // Shard s draws arrivals and request ids from seed + s (open loop).
  uint64_t seed = 1;
  Observers observers;
};

struct Outcome {
  adapt::GroupReport report;
  // One machine per shard, in its state after the run.
  std::vector<std::unique_ptr<sim::Machine>> machines;
  // Open loop: each shard's front-end report (ledgers already verified).
  std::vector<serve::FrontEndReport> front_ends;
  // Per shard, present when the matching observer rode along.
  std::vector<std::unique_ptr<obs::CycleProfiler>> profilers;
  std::vector<std::unique_ptr<obs::SpanCollector>> spans;
  std::vector<std::unique_ptr<obs::SloEvaluator>> slos;
  std::vector<std::unique_ptr<obs::ExemplarReservoir>> exemplars;
  std::vector<obs::TraceEvent> span_events;
  // Closed loop: pre-loaded tasks whose result equals the workload's
  // expected result.
  int correct_results = 0;
  // The controller after the run: original load site -> covering yield in
  // the newest binary, and generations rolled back into quarantine.
  std::map<isa::Addr, isa::Addr> site_index;
  int quarantined_generations = 0;
};

// Executes `spec`. Fails when serving fails, and — naming the shard — when a
// front end stopped on an error, a request ledger does not conserve, or an
// enabled span collector or exemplar reservoir is not exact.
Result<Outcome> Run(const Spec& spec);

// Feeds a finished run into a DiffEngine: both taxonomies per shard (needs
// the profiler and span observers), guard decisions by their group epoch,
// and SLO alerts by their cycle stamp mapped onto the firing shard's epochs.
obs::DiffEngine BuildDiffEngine(const Outcome& outcome);

}  // namespace yieldhide::scenario

#endif  // YIELDHIDE_SRC_SCENARIO_SCENARIO_H_
