// N1 — native-hardware check (§2): real C++20 coroutines + __builtin_prefetch
// interleaving dependent-load workloads on this machine.
//
// The simulated plane (C3) shows the mechanism's shape; this bench checks it
// against the physics: on real hardware, interleaving G pointer chases (or
// hash probes) with prefetch+suspend at the miss site should beat the
// sequential baseline once G covers the DRAM latency, with diminishing
// returns beyond. Absolute numbers depend on the host (container CPUs vary).
// The chase reproduces the shape; the hash probe gains far less than the
// simulator claims, because an out-of-order core already overlaps the plain
// loop's independent misses (EXPERIMENTS.md, N1).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/coro/interleave.h"
#include "src/coro/native_workloads.h"
#include "src/coro/timing.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kChaseNodes = 1 << 22;  // 256 MiB of 64 B nodes: DRAM-resident
constexpr size_t kSteps = 40'000;

void BenchChase(JsonWriter& json) {
  std::printf("\n-- native pointer chase (%zu-node ring, %zu steps/task) --\n",
              kChaseNodes, kSteps);
  coro::NativeChaseData data(kChaseNodes, 42);

  Table table({"group", "mode", "ns/step", "speedup"});
  table.PrintHeader();

  // Sequential baseline: one chase at a time.
  double baseline_ns = 0;
  {
    const uint64_t begin = coro::NowNs();
    uint64_t sink = 0;
    for (int task = 0; task < 4; ++task) {
      sink += data.ChasePlain(data.StartFor(task), kSteps);
    }
    coro::DoNotOptimize(sink);
    baseline_ns = static_cast<double>(coro::NowNs() - begin) / (4.0 * kSteps);
    table.PrintRow({"1", "plain", Fmt("%.1f", baseline_ns), "1.00x"});
    json.Add("chase:plain", {{"group", 1}, {"ns_per_op", baseline_ns}, {"speedup", 1.0}});
  }

  for (int group : {2, 4, 8, 16, 32}) {
    std::vector<coro::Task<uint64_t>> tasks;
    tasks.reserve(group);
    for (int task = 0; task < group; ++task) {
      tasks.push_back(data.ChaseCoro(data.StartFor(task), kSteps));
    }
    const uint64_t begin = coro::NowNs();
    coro::InterleaveAll(tasks);
    const double ns =
        static_cast<double>(coro::NowNs() - begin) / (static_cast<double>(group) * kSteps);
    uint64_t sink = 0;
    for (auto& task : tasks) {
      sink += task.result();
    }
    coro::DoNotOptimize(sink);
    table.PrintRow({StrFormat("%d", group), "interleaved", Fmt("%.1f", ns),
                    Fmt("%.2fx", baseline_ns / ns)});
    json.Add(StrFormat("chase:g%d", group),
             {{"group", group}, {"ns_per_op", ns}, {"speedup", baseline_ns / ns}});
  }
}

void BenchHashProbe(JsonWriter& json) {
  std::printf("\n-- native hash probe (2^24 buckets = 256 MiB, 50%% fill) --\n");
  coro::NativeHashData table_data(24, 0.5, 7);
  const size_t kKeys = 40'000;

  Table table({"group", "mode", "ns/probe", "speedup"});
  table.PrintHeader();

  std::vector<std::vector<uint64_t>> key_sets;
  for (int i = 0; i < 32; ++i) {
    key_sets.push_back(table_data.MakeKeys(kKeys, 0.8, 1000 + i));
  }

  double baseline_ns = 0;
  {
    const uint64_t begin = coro::NowNs();
    uint64_t sink = 0;
    for (int i = 0; i < 4; ++i) {
      sink += table_data.ProbePlain(key_sets[i]);
    }
    coro::DoNotOptimize(sink);
    baseline_ns = static_cast<double>(coro::NowNs() - begin) / (4.0 * kKeys);
    table.PrintRow({"1", "plain", Fmt("%.1f", baseline_ns), "1.00x"});
    json.Add("hash:plain", {{"group", 1}, {"ns_per_op", baseline_ns}, {"speedup", 1.0}});
  }

  for (int group : {2, 4, 8, 16, 32}) {
    std::vector<coro::Task<uint64_t>> tasks;
    for (int i = 0; i < group; ++i) {
      tasks.push_back(table_data.ProbeCoro(key_sets[i]));
    }
    const uint64_t begin = coro::NowNs();
    coro::InterleaveAll(tasks);
    const double ns = static_cast<double>(coro::NowNs() - begin) /
                      (static_cast<double>(group) * kKeys);
    uint64_t sink = 0;
    for (auto& task : tasks) {
      sink += task.result();
    }
    coro::DoNotOptimize(sink);
    table.PrintRow({StrFormat("%d", group), "interleaved", Fmt("%.1f", ns),
                    Fmt("%.2fx", baseline_ns / ns)});
    json.Add(StrFormat("hash:g%d", group),
             {{"group", group}, {"ns_per_op", ns}, {"speedup", baseline_ns / ns}});
  }
}

void BenchNativeDualMode(JsonWriter& json) {
  std::printf("\n-- native asymmetric concurrency (primary chase + scavenger chases) --\n");
  coro::NativeChaseData data(kChaseNodes, 11);
  const size_t kPrimarySteps = 20'000;

  // Primary alone.
  double alone_ns = 0;
  {
    coro::Task<uint64_t> primary = data.ChaseCoro(data.StartFor(0), kPrimarySteps);
    const uint64_t begin = coro::NowNs();
    while (!primary.done()) {
      primary.Resume();
    }
    alone_ns = static_cast<double>(coro::NowNs() - begin);
    coro::DoNotOptimize(primary.result());
  }

  Table table({"scavengers", "burst", "primary_ms", "latency_x", "scav_steps_done"});
  table.PrintHeader();
  table.PrintRow({"0", "-", Fmt("%.2f", alone_ns / 1e6), "1.00x", "0"});
  json.Add("dual:alone", {{"scavengers", 0},
                          {"primary_ms", alone_ns / 1e6},
                          {"latency_x", 1.0},
                          {"scavenger_resumes", 0}});

  for (const auto& [pool, burst] : std::vector<std::pair<int, size_t>>{
           {4, 4}, {8, 8}, {16, 8}}) {
    coro::Task<uint64_t> primary = data.ChaseCoro(data.StartFor(0), kPrimarySteps);
    std::vector<coro::Task<uint64_t>> scavengers;
    for (int i = 0; i < pool; ++i) {
      scavengers.push_back(data.ChaseCoro(data.StartFor(100 + i), 1u << 30));
    }
    const uint64_t begin = coro::NowNs();
    const coro::NativeDualModeStats stats =
        coro::RunNativeDualMode(primary, scavengers, burst);
    const double ns = static_cast<double>(coro::NowNs() - begin);
    coro::DoNotOptimize(primary.result());
    table.PrintRow({StrFormat("%d", pool), StrFormat("%zu", burst),
                    Fmt("%.2f", ns / 1e6), Fmt("%.2fx", ns / alone_ns),
                    FmtU(stats.scavenger_resumes)});
    json.Add(StrFormat("dual:p%d", pool),
             {{"scavengers", pool},
              {"burst", static_cast<double>(burst)},
              {"primary_ms", ns / 1e6},
              {"latency_x", ns / alone_ns},
              {"scavenger_resumes", static_cast<double>(stats.scavenger_resumes)}});
    // The tasks are destroyed unfinished (best-effort scavengers).
  }
  std::printf(
      "(each scavenger resume is one hidden chase step of batch work; the\n"
      "primary pays the burst only while its own prefetch is in flight)\n");
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide::bench;
  Banner("N1", "real-hardware coroutine interleaving (C++20 + __builtin_prefetch)");
  JsonWriter json("N1", argc, argv);
  BenchChase(json);
  BenchHashProbe(json);
  BenchNativeDualMode(json);
  std::printf(
      "\nReading: the chase speedup rises with the group to a plateau, as in\n"
      "the simulated C3 chase (1.97x at group 2, 9.08x from 16 on); on a\n"
      "4-vCPU Xeon VM it measured 1.98-2.14x at 2 and 12.3-14.3x at 32. The\n"
      "hash probe does not follow the simulator: on that VM, 0.79-0.95x at\n"
      "group 2 and 1.35-1.81x at 32, where simulated C3 claims 1.51x and a\n"
      "3.47x plateau. The simulated core (StallPolicy::kBlocking) serializes\n"
      "the plain probe loop's independent misses, which an out-of-order core\n"
      "overlaps without help, so the simulator overstates the gain wherever\n"
      "the baseline has memory-level parallelism. The win needs no profile\n"
      "here because the miss sites were hand-chosen; the simulated plane is\n"
      "where profile-guided selection is evaluated.\n");
  json.Flush();
  return 0;
}
