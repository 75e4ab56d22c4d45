// The three benchmark workloads. Each fills `report` with the end-to-end
// metrics (untraced) or the per-layer metrics (traced) and every
// correctness verdict; a non-ok status means the run could not complete.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/harness.h"

namespace perfbench {

// Closed-loop pointer chase, baseline then instrumented (closed_loop.cc).
yh::Status RunChase(const Options& options, Report& report);
// Hash probe, B-tree, skip list and array scan, built then run (closed_loop.cc).
yh::Status RunKernels(const Options& options, Report& report);
// Open-loop two-tenant serving on a guarded two-shard group (serve.cc).
yh::Status RunServe(const Options& options, Report& report);

// Per-layer rows of the serving modules (runtime.dm, serve, adapt, obs) for
// workloads that do not reach them: zero, so every traced run emits the
// same metric set.
void ReportIdleServingLayers(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
