#include "src/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include "src/instrument/primary_pass.h"
#include "src/instrument/scavenger_pass.h"
#include "src/instrument/verifier.h"
#include "src/profile/collector.h"

namespace perfbench {

uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NextCpu() {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  static int last = -1;
  for (int step = 1; step <= CPU_SETSIZE; ++step) {
    const int cpu = (last + step) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &initial)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      last = cpu;
      return;
    }
  }
}

double SpeedScale() {
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(1 << 22);  // a random cyclic walk over 16 MiB
    for (uint32_t i = 0; i < v.size(); ++i) {
      v[i] = i;
    }
    uint64_t x = 88172645463325252ull;
    for (size_t i = v.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % (i + 1)]);
    }
    return v;
  }();
  static const std::unordered_map<uint64_t, uint64_t> pages = [] {
    std::unordered_map<uint64_t, uint64_t> m;
    for (uint64_t i = 0; i < 8192; ++i) {
      m[i * 7919] = i;
    }
    return m;
  }();
  const uint64_t start = CpuNs();
  uint32_t p = 0;
  uint64_t h = 1;
  for (int i = 0; i < 200000; ++i) {
    p = next[p];
    h += pages.find((p & 8191) * 7919)->second;
    if (((h ^ p) & 1) != 0) {
      h = h * 6364136223846793005ull + 1;
    } else {
      h ^= h >> 7;
    }
  }
  const uint64_t elapsed = CpuNs() - start;
  if (h == 0x5eed) {  // keeps the loop from being optimized away
    std::fprintf(stderr, "calibration checksum %llu\n", static_cast<unsigned long long>(h));
  }
  return static_cast<double>(elapsed) / kNominalCalibrationNs;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

uint64_t Percentile(std::vector<uint64_t> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// ---- tracing ---------------------------------------------------------------

int Tracer::Begin(const char* name) {
  if (runs_.empty() || runs_.back() != run_) {
    runs_.push_back(run_);
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, CpuNs(), 0, open_.empty() ? -1 : open_.back(),
                    static_cast<int>(runs_.size()) - 1});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = CpuNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

yh::Status Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return yh::InternalError("cannot write " + path);
  }
  std::fprintf(file, "{\"clock\": \"thread_cpu_ns\", \"runs\": [");
  for (size_t i = 0; i < runs_.size(); ++i) {
    std::fprintf(file, "%s\"%s\"", i == 0 ? "" : ", ", runs_[i].c_str());
  }
  std::fprintf(file, "],\n\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %llu, \"end\": %llu, "
                 "\"parent\": %d, \"run\": %d}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent, s.run,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  const bool ok = std::fclose(file) == 0;
  return ok ? yh::Status::Ok() : yh::InternalError("cannot close " + path);
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

Timed::Timed(const char* name, uint64_t* acc_ns) : acc_ns_(acc_ns) {
  Tracer& tracer = GlobalTracer();
  if (tracer.on()) {
    span_ = tracer.Begin(name);
  }
  start_ns_ = CpuNs();
}

Timed::~Timed() {
  const uint64_t end = CpuNs();
  if (acc_ns_ != nullptr) {
    *acc_ns_ += end - start_ns_;
  }
  if (span_ >= 0) {
    GlobalTracer().End(span_);
  }
}

// ---- report ----------------------------------------------------------------

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  std::printf("  %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Failed(uint64_t n, const std::string& what) {
  if (n == 0) {
    return;
  }
  failed_ += n;
  correct_ = false;
  std::fprintf(stderr, "FAILED: %llu x %s\n", static_cast<unsigned long long>(n),
               what.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    Failed(1, what);
  }
}

int Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

// ---- sim replay ------------------------------------------------------------

void AddStats(HierStats& into, const HierStats& from) {
  into.loads += from.loads;
  into.l1_hits += from.l1_hits;
  into.l2_hits += from.l2_hits;
  into.l3_hits += from.l3_hits;
  into.dram_accesses += from.dram_accesses;
  into.inflight_merges += from.inflight_merges;
  into.stores += from.stores;
  into.store_misses += from.store_misses;
  into.prefetches_issued += from.prefetches_issued;
  into.prefetches_useless += from.prefetches_useless;
  into.prefetches_dropped += from.prefetches_dropped;
  into.hw_prefetches += from.hw_prefetches;
}

constexpr uint64_t kPrefetchBit = 1ull << 63;

void EventRecorder::OnLoad(int, yh::isa::Addr, uint64_t vaddr, yh::sim::HitLevel,
                           bool, uint32_t, uint64_t cycle) {
  segments_.back().push_back({vaddr & ~kPrefetchBit, cycle});
}

void EventRecorder::OnPrefetch(int, yh::isa::Addr, uint64_t vaddr, uint64_t cycle) {
  segments_.back().push_back({vaddr | kPrefetchBit, cycle});
}

ReplayResult Replay(const EventRecorder& recorder,
                    const yh::sim::HierarchyConfig& config,
                    const yh::sim::SparseMemory& memory) {
  ReplayResult result;
  uint64_t sink = 0;
  for (const auto& segment : recorder.segments()) {
    yh::sim::MemoryHierarchy hierarchy(config);
    {
      Timed timed("replay.hierarchy", &result.hier_ns);
      for (const EventRecorder::Event& e : segment) {
        const uint64_t vaddr = e.vaddr_and_kind & ~kPrefetchBit;
        if ((e.vaddr_and_kind & kPrefetchBit) != 0) {
          hierarchy.Prefetch(vaddr, e.cycle);
        } else {
          sink += hierarchy.AccessLoad(vaddr, e.cycle).latency_cycles;
        }
      }
    }
    result.accesses += segment.size();
    AddStats(result.stats, hierarchy.stats());
    {
      Timed timed("replay.memory", &result.mem_ns);
      for (const EventRecorder::Event& e : segment) {
        if ((e.vaddr_and_kind & kPrefetchBit) == 0) {
          sink += memory.Read64(e.vaddr_and_kind);
          ++result.reads;
        }
      }
    }
  }
  // Keeps the replay loops from being optimized away.
  if (sink == 0x5eed) {
    std::fprintf(stderr, "replay checksum %llu\n", static_cast<unsigned long long>(sink));
  }
  return result;
}

void Accumulate(ReplayResult& into, const ReplayResult& from) {
  AddStats(into.stats, from.stats);
  into.accesses += from.accesses;
  into.hier_ns += from.hier_ns;
  into.reads += from.reads;
  into.mem_ns += from.mem_ns;
}

// ---- pipeline --------------------------------------------------------------

bool SameBinary(const yh::instrument::InstrumentedProgram& a,
                const yh::instrument::InstrumentedProgram& b) {
  if (a.program.code() != b.program.code() || a.yields.size() != b.yields.size()) {
    return false;
  }
  for (auto ia = a.yields.begin(), ib = b.yields.begin(); ia != a.yields.end();
       ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.kind != ib->second.kind ||
        ia->second.save_mask != ib->second.save_mask ||
        ia->second.switch_cycles != ib->second.switch_cycles) {
      return false;
    }
  }
  return true;
}

yh::Result<yh::core::PipelineArtifacts> BuildStepwise(
    const yh::workloads::SimWorkload& workload,
    const yh::core::PipelineConfig& config, PipelineSteps* steps) {
  namespace core = yh::core;
  namespace instrument = yh::instrument;
  Timed build("pipeline.build");
  yh::sim::Machine machine(config.machine);
  workload.InitMemory(machine.memory());

  yh::profile::ProfileData profile;
  const int tasks = config.profile_tasks < 1 ? 1 : config.profile_tasks;
  for (int task = 0; task < tasks; ++task) {
    machine.ResetMicroarchState();
    yh::Result<yh::profile::CollectResult> collected = [&] {
      Timed timed("pipeline.profile", &steps->profile_ns);
      return yh::profile::CollectProfile(
          workload.program(), machine,
          workload.SetupFor(config.profile_first_task + task), config.collector);
    }();
    YH_RETURN_IF_ERROR(collected.status());
    profile.loads.Merge(collected->profile.loads);
    profile.blocks.Merge(collected->profile.blocks);
    steps->samples += collected->sample_drops.accepted;
    steps->sample_drops += collected->sample_drops.dropped_out_of_range +
                           collected->sample_drops.dropped_unknown_event;
  }
  const yh::profile::ProfileData collected_profile = profile;

  // Mirrors core's InstrumentWithProfile: sanitize, primary, scavenger over
  // the translated block profile, verify.
  const yh::isa::Program& original = workload.program();
  yh::profile::SanitizeProfileData(profile, static_cast<yh::isa::Addr>(original.size()));
  yh::Result<instrument::PrimaryResult> primary = [&] {
    Timed timed("pipeline.primary", &steps->primary_ns);
    return instrument::RunPrimaryPass(original, profile.loads, config.primary);
  }();
  YH_RETURN_IF_ERROR(primary.status());
  const instrument::AddrMap& map = primary->instrumented.addr_map;
  const yh::profile::BlockLatencyProfile translated = profile.blocks.Translated(
      [&map](yh::isa::Addr addr) { return addr < map.old_size() ? map.Translate(addr) : addr; });
  yh::Result<instrument::ScavengerResult> scavenger = [&] {
    Timed timed("pipeline.scavenger", &steps->scavenger_ns);
    return instrument::RunScavengerPass(
        primary->instrumented,
        config.scavenger.use_block_profile ? &translated : nullptr, config.scavenger);
  }();
  YH_RETURN_IF_ERROR(scavenger.status());
  {
    Timed timed("pipeline.verify", &steps->verify_ns);
    instrument::VerifyOptions options;
    options.machine_cost = config.machine.cost;
    YH_RETURN_IF_ERROR(
        instrument::VerifyInstrumentation(original, scavenger->instrumented, options));
  }

  yh::Result<core::PipelineArtifacts> rebuilt = [&] {
    Timed timed("pipeline.rebuild", &steps->rebuild_ns);
    return core::InstrumentFromProfile(original, collected_profile, config);
  }();
  YH_RETURN_IF_ERROR(rebuilt.status());
  if (!SameBinary(rebuilt->binary, scavenger->instrumented)) {
    return yh::InternalError("stepwise build and InstrumentFromProfile disagree");
  }
  ++steps->builds;
  steps->primary_sites += primary->report.instrumented_loads.size();
  steps->scavenger_sites += scavenger->report.cyields_inserted;
  return rebuilt;
}

// ---- per-layer rows --------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void ReportSimLayer(Report& report, uint64_t instructions, uint64_t run_ns,
                    const HierStats& live, const ReplayResult& replay,
                    uint64_t resident_pages) {
  std::printf("  hierarchy counts      %14s %14s\n", "live", "replayed");
  const auto row = [](const char* name, uint64_t live_n, uint64_t replay_n) {
    std::printf("    %-20s %14llu %14llu\n", name, static_cast<unsigned long long>(live_n),
                static_cast<unsigned long long>(replay_n));
  };
  row("loads", live.loads, replay.stats.loads);
  row("l1_hits", live.l1_hits, replay.stats.l1_hits);
  row("l2_hits", live.l2_hits, replay.stats.l2_hits);
  row("l3_hits", live.l3_hits, replay.stats.l3_hits);
  row("dram", live.dram_accesses, replay.stats.dram_accesses);
  row("inflight_merges", live.inflight_merges, replay.stats.inflight_merges);
  row("prefetches", live.prefetches_issued, replay.stats.prefetches_issued);
  row("stores", live.stores, replay.stats.stores);
  std::printf("    (stores are not in the event stream, so the replay sees none)\n");

  const double loads = static_cast<double>(live.loads);
  const double pf = static_cast<double>(live.prefetches_issued);
  report.Metric("sim.exec.instructions", static_cast<double>(instructions), "count");
  report.Metric("sim.exec.host_ns_per_instr",
                Ratio(static_cast<double>(run_ns), static_cast<double>(instructions)), "ns");
  report.Metric("sim.exec.self_share",
                1.0 - Ratio(static_cast<double>(replay.hier_ns + replay.mem_ns),
                            static_cast<double>(run_ns)),
                "ratio");
  report.Metric("sim.hier.loads", loads, "count");
  report.Metric("sim.hier.l1_hit_ratio", Ratio(static_cast<double>(live.l1_hits), loads),
                "ratio");
  report.Metric("sim.hier.dram_per_kinstr",
                Ratio(1000.0 * static_cast<double>(live.dram_accesses),
                      static_cast<double>(instructions)),
                "count");
  report.Metric("sim.hier.inflight_merges", static_cast<double>(live.inflight_merges),
                "count");
  // Prefetch requests that started a fill, out of all requested (the rest
  // found the line cached or in flight, or found the MSHRs full).
  report.Metric("sim.hier.pf_useful_ratio",
                Ratio(pf, pf + static_cast<double>(live.prefetches_useless +
                                                   live.prefetches_dropped)),
                "ratio");
  report.Metric("sim.hier.pf_dropped", static_cast<double>(live.prefetches_dropped),
                "count");
  report.Metric("sim.hier.host_ns_per_access",
                Ratio(static_cast<double>(replay.hier_ns),
                      static_cast<double>(replay.accesses)),
                "ns");
  report.Metric("sim.mem.host_ns_per_read",
                Ratio(static_cast<double>(replay.mem_ns), static_cast<double>(replay.reads)),
                "ns");
  report.Metric("sim.mem.resident_pages", static_cast<double>(resident_pages), "count");
}

void ReportPipelineLayer(Report& report, const PipelineSteps& steps) {
  const double builds = static_cast<double>(steps.builds);
  const auto per_build_ms = [builds](uint64_t ns) {
    return builds == 0.0 ? 0.0 : static_cast<double>(ns) / 1e6 / builds;
  };
  report.Metric("pipeline.profile_ms", per_build_ms(steps.profile_ns), "ms");
  report.Metric("pipeline.primary_ms", per_build_ms(steps.primary_ns), "ms");
  report.Metric("pipeline.scavenger_ms", per_build_ms(steps.scavenger_ns), "ms");
  report.Metric("pipeline.verify_ms", per_build_ms(steps.verify_ns), "ms");
  report.Metric("pipeline.rebuild_ms", per_build_ms(steps.rebuild_ns), "ms");
  report.Metric("pipeline.samples", static_cast<double>(steps.samples), "count");
  report.Metric("pipeline.sample_drops", static_cast<double>(steps.sample_drops), "count");
  report.Metric("pipeline.primary_sites", static_cast<double>(steps.primary_sites), "count");
  report.Metric("pipeline.scavenger_sites", static_cast<double>(steps.scavenger_sites),
                "count");
}

void ReportRuntimeLayer(Report& report, uint64_t yields, uint64_t stall_cycles,
                        uint64_t switch_cycles, uint64_t total_cycles) {
  const double cycles = static_cast<double>(total_cycles);
  report.Metric("runtime.yields", static_cast<double>(yields), "count");
  report.Metric("runtime.stall_frac", Ratio(static_cast<double>(stall_cycles), cycles), "ratio");
  report.Metric("runtime.switch_frac", Ratio(static_cast<double>(switch_cycles), cycles),
                "ratio");
}

void ReportTraceRows(Report& report, uint64_t traced_ns, uint64_t untraced_ns) {
  report.Metric("trace.overhead_frac",
                Ratio(static_cast<double>(traced_ns), static_cast<double>(untraced_ns)) - 1.0,
                "ratio");
  report.Metric("trace.spans", static_cast<double>(GlobalTracer().size()), "count");
}

void ReportHostPlane(Report& report, const HostSamples& host) {
  std::printf("  machine speed scale: median %.3f over %zu calibrations\n", Median(host.scale),
              host.scale.size());
  report.Metric("setup_s", Median(host.setup_s), "s");
  report.Metric("sim_minstr_per_s", Quantile(host.minstr_per_s, 0.75), "Minstr/s");
  report.Metric("build_ms", Median(host.build_ms), "ms");
  report.Metric("req_per_s", Quantile(host.req_per_s, 0.75), "1/s");
}

void ReportOutcome(Report& report) {
  report.Metric("ok_frac",
                1.0 - Ratio(static_cast<double>(report.failed()),
                            static_cast<double>(report.attempted())),
                "ratio");
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace perfbench
