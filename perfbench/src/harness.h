// Shared plumbing for the benchmark driver: host clocks, the span tracer,
// the result report, the load/prefetch recorder and its replay, and the
// decomposed pipeline build used by traced runs.
//
// Host times are CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID):
// the benchmark is single-threaded and the machine is shared, and thread
// CPU time is far steadier across processes than wall time. Repeated passes
// rotate over the CPUs (NextCpu), because one CPU can stay slower than the
// others for a whole run. Every set-up and pass is scaled by a calibration
// loop timed just before it on the same CPU (SpeedScale), because the
// shared machine's speed drifts by a quarter over minutes.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/pipeline.h"
#include "src/sim/events.h"
#include "src/sim/hierarchy.h"
#include "src/sim/memory.h"
#include "src/workloads/workload.h"

namespace perfbench {

namespace yh = ::yieldhide;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

uint64_t CpuNs();
double WallSeconds();
// Moves the calling thread to the next CPU of the affinity mask it started
// with, so the passes of one run spread over every CPU the machine gives it.
void NextCpu();
// Times a fixed calibration loop that shares no code with yieldhide but
// resembles the simulator's host work (random reads over 16 MiB, hash-map
// lookups, data-dependent branches) and returns how much slower the machine
// is now than the one the benchmark was tuned on, where the loop took
// kNominalCalibrationNs. Host rates are multiplied by it, host times divided.
inline constexpr double kNominalCalibrationNs = 35e6;
double SpeedScale();
double PeakRssMb();
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Nearest-rank percentile of raw samples; 0 for an empty set.
uint64_t Percentile(std::vector<uint64_t> values, double q);

// In-memory span recorder. Spans are recorded only while enabled, so the
// untraced passes pay nothing for it; they are written out once, at the end.
class Tracer {
 public:
  void Enable(bool on) { on_ = on; }
  bool on() const { return on_; }
  // Every span recorded from now on carries this workload-run id.
  void SetRun(std::string run) { run_ = std::move(run); }
  int Begin(const char* name);
  void End(int id);
  size_t size() const { return spans_.size(); }
  yh::Status WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int parent;
    int run;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> runs_;
  std::string run_;
};

Tracer& GlobalTracer();

// Times one call into a layer: adds its thread-CPU ns to `*acc_ns` (if
// given) and records a span when the tracer is on.
class Timed {
 public:
  explicit Timed(const char* name, uint64_t* acc_ns = nullptr);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  uint64_t* acc_ns_;
  uint64_t start_ns_;
  int span_ = -1;
};

// Collects metrics and correctness failures and prints the final line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Attempted(uint64_t n) { attempted_ += n; }
  // Counts `n` failed operations (wrong result, shed, refused, errored).
  void Failed(uint64_t n, const std::string& what);
  // A broken invariant: fails the run and counts as one failure.
  void Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Prints the result object as the last stdout line; returns the exit code.
  int Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

using HierStats = yh::sim::MemoryHierarchy::Stats;
void AddStats(HierStats& into, const HierStats& from);

// Records the demand-load and prefetch streams a machine publishes, in
// order, split into segments at every hierarchy reset.
class EventRecorder : public yh::sim::EventListener {
 public:
  struct Event {
    uint64_t vaddr_and_kind;  // bit 63 set = prefetch
    uint64_t cycle;
  };
  void NewSegment() { segments_.emplace_back(); }
  void OnLoad(int ctx_id, yh::isa::Addr ip, uint64_t vaddr, yh::sim::HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override;
  void OnPrefetch(int ctx_id, yh::isa::Addr ip, uint64_t vaddr,
                  uint64_t cycle) override;
  const std::vector<std::vector<Event>>& segments() const { return segments_; }

 private:
  std::vector<std::vector<Event>> segments_;
};

struct ReplayResult {
  HierStats stats;         // from the replayed hierarchy
  uint64_t accesses = 0;   // loads + prefetches replayed
  uint64_t hier_ns = 0;
  uint64_t reads = 0;      // Read64 calls on the memory image
  uint64_t mem_ns = 0;
};

// Replays every segment through a fresh MemoryHierarchy (one per segment,
// as the live machine was reset between them) and the loads through
// `memory.Read64`.
ReplayResult Replay(const EventRecorder& recorder,
                    const yh::sim::HierarchyConfig& config,
                    const yh::sim::SparseMemory& memory);
void Accumulate(ReplayResult& into, const ReplayResult& from);

// Per-step pipeline timings of traced builds.
struct PipelineSteps {
  uint64_t builds = 0;
  uint64_t profile_ns = 0;
  uint64_t primary_ns = 0;
  uint64_t scavenger_ns = 0;
  uint64_t verify_ns = 0;
  uint64_t rebuild_ns = 0;
  uint64_t samples = 0;
  uint64_t sample_drops = 0;
  uint64_t primary_sites = 0;
  uint64_t scavenger_sites = 0;
};

// core::BuildInstrumentedForWorkload, step by step, timing each public call
// (profile::CollectProfile, instrument::RunPrimaryPass / RunScavengerPass /
// VerifyInstrumentation) and then core::InstrumentFromProfile on the same
// profile. Fails if the rebuild disagrees with the stepwise binary.
yh::Result<yh::core::PipelineArtifacts> BuildStepwise(
    const yh::workloads::SimWorkload& workload,
    const yh::core::PipelineConfig& config, PipelineSteps* steps);

bool SameBinary(const yh::instrument::InstrumentedProgram& a,
                const yh::instrument::InstrumentedProgram& b);

// Adds the per-layer `sim.*` rows shared by every workload and prints the
// replayed hierarchy counts beside the live ones.
void ReportSimLayer(Report& report, uint64_t instructions, uint64_t run_ns,
                    const HierStats& live, const ReplayResult& replay,
                    uint64_t resident_pages);
void ReportPipelineLayer(Report& report, const PipelineSteps& steps);
void ReportRuntimeLayer(Report& report, uint64_t yields, uint64_t stall_cycles,
                        uint64_t switch_cycles, uint64_t total_cycles);
// trace.overhead_frac (traced / untraced pass CPU − 1) and trace.spans.
void ReportTraceRows(Report& report, uint64_t traced_ns, uint64_t untraced_ns);

// Host-plane samples of a timed run, already scaled by SpeedScale: set-up
// and build times (median reported) and per-pass throughputs (upper
// quartile reported).
struct HostSamples {
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> minstr_per_s;
  std::vector<double> req_per_s;
  std::vector<double> scale;  // SpeedScale of every set-up and pass
};
void ReportHostPlane(Report& report, const HostSamples& host);
// ok_frac from the report's counts, and peak_rss_mb: the closing rows.
void ReportOutcome(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
