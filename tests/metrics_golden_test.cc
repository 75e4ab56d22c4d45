// Golden tests for the metric publishers: ShardFrontEnd, DualModeScheduler,
// SloEvaluator and SamplingSession. A small, fixed, observed serving run
// must publish exactly the recorded registry snapshot
// (tests/data/metrics_golden.json), and a publisher moved to new labels or a
// new registry must publish there and leave its old series alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/common/strings.h"
#include "src/core/pipeline.h"
#include "src/instrument/types.h"
#include "src/obs/labels.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/pmu/session.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/serve/front_end.h"
#include "src/sim/executor.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    out.push_back(line);
  }
  return out;
}

// Empty when equal; otherwise names the first line that differs.
std::string FirstDifference(const std::string& expected,
                            const std::string& actual) {
  const std::vector<std::string> want = Lines(expected);
  const std::vector<std::string> got = Lines(actual);
  for (size_t i = 0; i < want.size() || i < got.size(); ++i) {
    const std::string w = i < want.size() ? want[i] : "<end of snapshot>";
    const std::string g = i < got.size() ? got[i] : "<end of snapshot>";
    if (w != g) {
      return "line " + std::to_string(i + 1) + "\n  expected: " + w +
             "\n  actual:   " + g;
    }
  }
  return "";
}

// Lines of `before` missing from `after`: a series that changed or vanished.
std::vector<std::string> ChangedLines(const std::string& before,
                                      const std::string& after) {
  const std::vector<std::string> now = Lines(after);
  std::vector<std::string> changed;
  for (const std::string& line : Lines(before)) {
    // Drop the ",\n" joiner so a line's position in the list does not matter.
    const std::string bare =
        !line.empty() && line.back() == ',' ? line.substr(0, line.size() - 1)
                                            : line;
    bool found = false;
    for (const std::string& candidate : now) {
      if (candidate == bare || candidate == bare + ",") {
        found = true;
        break;
      }
    }
    if (!found) {
      changed.push_back(line);
    }
  }
  return changed;
}

// A counter's value, or -1 when the series does not exist.
int64_t CounterValue(const obs::MetricsRegistry& registry,
                     const std::string& name, const obs::Labels& labels = {}) {
  const obs::Counter* counter = registry.FindCounter(name, labels);
  return counter == nullptr ? -1 : static_cast<int64_t>(counter->value());
}

workloads::PhasedChase MakeChase(double severity, int flip) {
  workloads::PhasedChase::Config wc;
  wc.num_nodes = 4096;  // 256 KiB per ring > SmallTest L3: true misses
  wc.steps_per_task = 120;
  wc.severity = severity;
  wc.flip_task_index = flip;
  return workloads::PhasedChase::Make(wc).value();
}

core::PipelineConfig SmallPipeline() {
  core::PipelineConfig pipeline;
  pipeline.machine = sim::MachineConfig::SmallTest();
  pipeline.profile_tasks = 2;
  // Short SmallTest profile runs need dense sampling to see the miss sites.
  pipeline.collector.l2_miss_period = 13;
  pipeline.collector.stall_cycles_period = 101;
  pipeline.collector.retired_period = 29;
  pipeline.Finalize();
  return pipeline;
}

// A guarded, adapting 2-shard group serving two tenants — fg with a p99
// budget and bg — with every observer attached: trace recorder, registry,
// cycle profilers, span collectors, and group, shard and tenant SLO
// evaluators publishing into the same registry. The workload flips phase
// mid-run so rebuilds and swaps move the per-site series.
std::string ObservedServingSnapshot() {
  const workloads::PhasedChase chase = MakeChase(/*severity=*/1.0, /*flip=*/12);
  const workloads::PhasedChase stable = MakeChase(/*severity=*/0.0, /*flip=*/12);
  const core::PipelineConfig pipeline = SmallPipeline();
  auto artifacts = core::BuildInstrumentedForWorkload(stable, pipeline);
  EXPECT_TRUE(artifacts.ok()) << artifacts.status();
  if (!artifacts.ok()) {
    return "";
  }

  constexpr size_t kShards = 2;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Machine*> machine_ptrs;
  for (size_t s = 0; s < kShards; ++s) {
    machines.push_back(std::make_unique<sim::Machine>(pipeline.machine));
    chase.InitMemory(machines.back()->memory());
    machine_ptrs.push_back(machines.back().get());
  }
  adapt::ServerGroupConfig config;
  config.shards = kShards;
  config.shard.controller.pipeline = pipeline;
  config.shard.controller.drift_threshold = 0.25;
  config.shard.tasks_per_epoch = 4;
  config.shard.adapt_enabled = true;
  config.shard.scale_pool = true;
  config.shard.dual.max_scavengers = 3;
  config.guard.enabled = true;
  config.guard.confirmation_window = 2;
  adapt::ServerGroup group(&chase.program(), *artifacts, machine_ptrs, config);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  group.SetObservability(&trace, &metrics);

  serve::TenantSpec fg;
  fg.name = "fg";
  fg.share = 0.5;
  fg.p99_budget_cycles = 60'000;
  serve::TenantSpec bg;
  bg.name = "bg";
  bg.priority = serve::TenantSpec::Class::kBackground;
  bg.share = 0.5;

  obs::SloConfig slo_config;
  slo_config.latency_budget_cycles = 40'000;
  slo_config.objective = 0.99;
  slo_config.fast_window_cycles = 100'000;
  slo_config.slow_window_cycles = 400'000;
  slo_config.bucket_cycles = 25'000;
  obs::SloConfig fg_slo_config = slo_config;
  fg_slo_config.latency_budget_cycles = fg.p99_budget_cycles;

  std::vector<std::unique_ptr<serve::ShardFrontEnd>> fronts;
  std::vector<std::unique_ptr<obs::CycleProfiler>> profilers;
  std::vector<std::unique_ptr<obs::SpanCollector>> spans;
  std::vector<std::unique_ptr<obs::SloEvaluator>> slos;
  for (size_t s = 0; s < kShards; ++s) {
    serve::FrontEndConfig fe;
    fe.arrival.rate_per_kcycle = 0.06;
    fe.arrival.horizon_cycles = 600'000;
    fe.arrival.seed = 11 + s;
    fe.id_seed = 11 + s;
    fe.queue_capacity = 8;
    fe.tenants = {fg, bg};
    const obs::Labels labels = obs::LabelSet().Shard(s).Build();
    fronts.push_back(std::make_unique<serve::ShardFrontEnd>(
        fe,
        [&chase](uint64_t id) { return chase.SetupFor(static_cast<int>(id)); },
        &trace, &metrics, labels));
    serve::ShardFrontEnd& front = *fronts.back();
    profilers.push_back(std::make_unique<obs::CycleProfiler>());
    spans.push_back(std::make_unique<obs::SpanCollector>());
    spans.back()->SetTrace(&trace);
    slos.push_back(std::make_unique<obs::SloEvaluator>(slo_config));
    slos.back()->SetTrace(&trace, static_cast<int32_t>(s));
    slos.back()->SetMetrics(&metrics, labels);
    front.SetSpanCollector(spans.back().get());
    front.SetSloEvaluator(slos.back().get());
    slos.push_back(std::make_unique<obs::SloEvaluator>(fg_slo_config));
    slos.back()->SetMetrics(&metrics,
                            obs::LabelSet(labels).Tenant(fg.name).Build());
    front.SetTenantSloEvaluator(0, slos.back().get());
    group.SetProfiler(s, profilers.back().get());
    group.SetSpanCollector(s, spans.back().get());
    group.SetSloEvaluator(s, slos[slos.size() - 2].get());
    group.SetRequestSource(s, &front);
    group.SetScavengerFactory(s, front.MakeScavengerFactory());
  }
  auto report = group.Run();
  EXPECT_TRUE(report.ok()) << report.status();
  for (size_t s = 0; s < kShards; ++s) {
    const serve::FrontEndReport fr = fronts[s]->report();
    EXPECT_TRUE(fr.ConservationHolds()) << "shard " << s << ": " << fr.Summary();
    EXPECT_TRUE(fr.TenantLedgersConsistent()) << "shard " << s;
    EXPECT_GT(fr.counters.completed, 0u) << "shard " << s;
  }
  return metrics.ToJson();
}

TEST(MetricsGoldenTest, ObservedTwoTenantServingPublishesTheRecordedSnapshot) {
  const std::string expected =
      ReadFile(std::string(YH_TEST_DATA_DIR) + "/metrics_golden.json");
  ASSERT_FALSE(expected.empty()) << "missing tests/data/metrics_golden.json";
  const std::string actual = ObservedServingSnapshot();
  EXPECT_TRUE(actual == expected) << FirstDifference(expected, actual);
}

// ---------- rebinding: new labels or a new registry move the series --------

class SchedulerRebindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chase_ = std::make_unique<workloads::PhasedChase>(MakeChase(0.0, 8));
    binary_ = runtime::AnnotateManualYields(
        chase_->program(), sim::MachineConfig::SmallTest().cost);
    // Two side tables for the same code, both with an instrumented primary
    // yield at `site_`: `before_` maps it to original site site_, `after_`
    // (as if one instruction had been inserted at the top) to site_ - 1.
    site_ = 2;
    while (binary_.yields.count(site_) != 0) {
      ++site_;
    }
    std::vector<isa::Addr> identity(binary_.program.size());
    std::vector<isa::Addr> shifted(binary_.program.size());
    for (size_t i = 0; i < identity.size(); ++i) {
      identity[i] = static_cast<isa::Addr>(i);
      shifted[i] = static_cast<isa::Addr>(i + 1);
    }
    before_ = binary_;
    before_.addr_map = instrument::AddrMap(identity);
    before_.yields[site_].kind = instrument::YieldKind::kPrimary;
    after_ = before_;
    after_.addr_map = instrument::AddrMap(shifted);
    machine_ = std::make_unique<sim::Machine>(sim::MachineConfig::SmallTest());
    chase_->InitMemory(machine_->memory());
    runtime::DualModeConfig dm;
    dm.max_scavengers = 2;
    scheduler_ = std::make_unique<runtime::DualModeScheduler>(
        &before_, &binary_, machine_.get(), dm);
    scheduler_->SetScavengerFactory(
        [this]() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
          return chase_->SetupFor(static_cast<int>(next_scavenger_++ % 64));
        });
    for (int task = 0; task < 6; ++task) {
      scheduler_->AddPrimaryTask(chase_->SetupFor(task));
    }
  }

  void RunTasks(size_t n) {
    auto ran = scheduler_->RunTasks(n);
    ASSERT_TRUE(ran.ok()) << ran.status();
    ASSERT_EQ(*ran, n);
  }

  int64_t Completed(const obs::MetricsRegistry& registry,
                    const obs::Labels& labels) const {
    return CounterValue(registry, "yh_sched_tasks_completed_total", labels);
  }

  std::unique_ptr<workloads::PhasedChase> chase_;
  instrument::InstrumentedProgram binary_;
  instrument::InstrumentedProgram before_;
  instrument::InstrumentedProgram after_;
  isa::Addr site_ = 0;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<runtime::DualModeScheduler> scheduler_;
  uint64_t next_scavenger_ = 0;
};

TEST_F(SchedulerRebindTest, NewLabelsMoveTheSeriesAndFreezeTheOldOnes) {
  obs::MetricsRegistry registry;
  const obs::Labels first = obs::LabelSet().Shard(0).Build();
  const obs::Labels second = obs::LabelSet().Shard(1).Build();
  scheduler_->SetObservability(nullptr, &registry);
  scheduler_->SetMetricsLabels(first);
  RunTasks(2);
  EXPECT_EQ(Completed(registry, first), 2);
  const std::string before = registry.ToJson();

  scheduler_->SetMetricsLabels(second);
  RunTasks(2);
  EXPECT_EQ(Completed(registry, first), 2);
  EXPECT_EQ(Completed(registry, second), 4);
  const LatencyHistogram* latency =
      registry.FindHistogram("yh_sched_primary_latency_cycles", second);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_EQ(ChangedLines(before, registry.ToJson()),
            std::vector<std::string>{});
}

TEST_F(SchedulerRebindTest, SecondRegistryTakesOverAndTheFirstStops) {
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  scheduler_->SetObservability(nullptr, &first);
  RunTasks(2);
  EXPECT_EQ(Completed(first, {}), 2);
  const std::string before = first.ToJson();

  scheduler_->SetObservability(nullptr, &second);
  RunTasks(3);
  EXPECT_EQ(first.ToJson(), before);
  EXPECT_EQ(Completed(second, {}), 5);
  EXPECT_NE(second.FindGauge("yh_sched_scavengers_live"), nullptr);

  // Detaching stops publishing altogether.
  scheduler_->SetObservability(nullptr, nullptr);
  const std::string detached = second.ToJson();
  RunTasks(1);
  EXPECT_EQ(second.ToJson(), detached);
}

TEST_F(SchedulerRebindTest, SwapMovesASiteSeriesToItsNewOriginalSite) {
  obs::MetricsRegistry registry;
  scheduler_->SetObservability(nullptr, &registry);
  runtime::YieldSiteStats stats;
  stats.visits = 5;
  stats.useful = 3;
  scheduler_->SeedSiteStats({{site_, stats}});
  RunTasks(1);
  const obs::Labels old_site{{"outcome", "hidden"}, {"site", StrFormat("0x%x", site_)}};
  const obs::Labels new_site{{"outcome", "hidden"},
                             {"site", StrFormat("0x%x", site_ - 1)}};
  EXPECT_EQ(CounterValue(registry, "yh_sched_site_yields_total", old_site), 3);

  // The same yield address now belongs to another original site.
  stats.useful = 4;
  ASSERT_TRUE(scheduler_->SwapBinaries(&after_, nullptr, {{site_, stats}}).ok());
  RunTasks(1);
  EXPECT_EQ(CounterValue(registry, "yh_sched_site_yields_total", old_site), 3);
  EXPECT_EQ(CounterValue(registry, "yh_sched_site_yields_total", new_site), 4);
}

obs::SloConfig RebindSlo() {
  obs::SloConfig config;
  config.latency_budget_cycles = 100;
  config.objective = 0.9;
  config.fast_window_cycles = 1'000;
  config.slow_window_cycles = 4'000;
  config.bucket_cycles = 250;
  return config;
}

TEST(SloRebindTest, NewLabelsMoveTheSeriesAndFreezeTheOldOnes) {
  obs::SloEvaluator slo(RebindSlo());
  obs::MetricsRegistry registry;
  const obs::Labels first{{"shard", "0"}};
  const obs::Labels second{{"shard", "1"}};
  slo.SetMetrics(&registry, first);
  slo.Record(10, 10);
  slo.Record(20, 500);
  slo.PublishMetrics();
  const std::string before = registry.ToJson();
  EXPECT_EQ(CounterValue(registry, "yh_slo_bad_total", first), 1);

  slo.SetMetrics(&registry, second);
  slo.Record(30, 500);
  slo.PublishMetrics();
  EXPECT_EQ(CounterValue(registry, "yh_slo_requests_total", first), 2);
  EXPECT_EQ(CounterValue(registry, "yh_slo_requests_total", second), 3);
  EXPECT_EQ(CounterValue(registry, "yh_slo_bad_total", second), 2);
  EXPECT_EQ(ChangedLines(before, registry.ToJson()),
            std::vector<std::string>{});
}

TEST(SloRebindTest, SecondRegistryTakesOverAndTheFirstStops) {
  obs::SloEvaluator slo(RebindSlo());
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  slo.SetMetrics(&first, {});
  slo.Record(10, 10);
  slo.PublishMetrics();
  const std::string before = first.ToJson();

  slo.SetMetrics(&second, {});
  slo.Record(20, 500);
  slo.PublishMetrics();
  EXPECT_EQ(first.ToJson(), before);
  EXPECT_EQ(CounterValue(second, "yh_slo_requests_total"), 2);
  EXPECT_EQ(CounterValue(second, "yh_slo_bad_total"), 1);
}

// A sampling session attached to one machine, drained after each task.
class SessionRebindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chase_ = std::make_unique<workloads::PhasedChase>(MakeChase(0.0, 8));
    machine_ = std::make_unique<sim::Machine>(sim::MachineConfig::SmallTest());
    chase_->InitMemory(machine_->memory());
    pmu::SessionConfig config;
    for (const pmu::HwEvent event :
         {pmu::HwEvent::kLoadsL2Miss, pmu::HwEvent::kStallCycles,
          pmu::HwEvent::kRetiredInstructions}) {
      pmu::PebsConfig pebs;
      pebs.event = event;
      pebs.period = 17;
      config.pebs.push_back(pebs);
    }
    session_ = std::make_unique<pmu::SamplingSession>(config);
    session_->AttachTo(*machine_);
  }

  void RunTaskAndDrain(int task) {
    sim::Executor executor(&chase_->program(), machine_.get());
    sim::CpuContext ctx;
    ctx.ResetArchState(chase_->program().entry());
    chase_->SetupFor(task)(ctx);
    ASSERT_TRUE(executor.RunToCompletion(ctx, 1'000'000).ok());
    session_->DrainAllSamples();
  }

  std::unique_ptr<workloads::PhasedChase> chase_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<pmu::SamplingSession> session_;
};

TEST_F(SessionRebindTest, PublishesTheRecordedSnapshot) {
  obs::MetricsRegistry registry;
  session_->SetObservability(nullptr, &registry);
  RunTaskAndDrain(0);
  RunTaskAndDrain(1);
  const std::string expected = ReadFile(std::string(YH_TEST_DATA_DIR) +
                                        "/metrics_golden_session.json");
  ASSERT_FALSE(expected.empty())
      << "missing tests/data/metrics_golden_session.json";
  const std::string actual = registry.ToJson();
  EXPECT_TRUE(actual == expected) << FirstDifference(expected, actual);
}

TEST_F(SessionRebindTest, SecondRegistryTakesOverAndTheFirstStops) {
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  session_->SetObservability(nullptr, &first);
  RunTaskAndDrain(0);
  const std::string before = first.ToJson();
  const obs::Labels l2{{"event", pmu::HwEventName(pmu::HwEvent::kLoadsL2Miss)}};
  const int64_t events_before = CounterValue(first, "yh_pmu_events_total", l2);

  session_->SetObservability(nullptr, &second);
  RunTaskAndDrain(1);
  EXPECT_EQ(first.ToJson(), before);
  EXPECT_GT(CounterValue(second, "yh_pmu_events_total", l2), events_before);
  EXPECT_EQ(CounterValue(second, "yh_pmu_events_total", l2),
            static_cast<int64_t>(session_->pebs(0).event_count()));
  EXPECT_EQ(CounterValue(second, "yh_pmu_overhead_cycles_total"),
            static_cast<int64_t>(session_->OverheadCycles()));
}

}  // namespace
}  // namespace yieldhide
