// Tests for scenario::Run (src/scenario): a run it wires from a Spec serves
// exactly what the same ServerGroup wired by hand serves, and a front end that
// stops on an error fails the run instead of passing for an exhausted source.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/adapt/server_group.h"
#include "src/core/pipeline.h"
#include "src/scenario/scenario.h"
#include "src/serve/front_end.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::scenario {
namespace {

core::PipelineConfig SmallPipeline() {
  core::PipelineConfig config;
  config.machine = sim::MachineConfig::SmallTest();
  config.profile_tasks = 2;
  config.collector.l2_miss_period = 13;
  config.collector.stall_cycles_period = 101;
  config.collector.retired_period = 29;
  config.Finalize();
  return config;
}

// 256 KiB per ring > SmallTest L3, so payload loads are true misses.
workloads::PhasedChase SmallPhased(double severity, int flip) {
  workloads::PhasedChase::Config config;
  config.num_nodes = 4096;
  config.steps_per_task = 300;
  config.severity = severity;
  config.flip_task_index = flip;
  return workloads::PhasedChase::Make(config).value();
}

adapt::ServerGroupConfig OneShard(const core::PipelineConfig& pipeline,
                                  bool adapting) {
  adapt::ServerGroupConfig config;
  config.shard.controller.pipeline = pipeline;
  config.shard.tasks_per_epoch = 4;
  config.shard.adapt_enabled = adapting;
  config.shard.scale_pool = adapting;
  config.shard.dual.max_scavengers = 4;
  config.shard.dual.hide_window_cycles = 300;
  return config;
}

TEST(ScenarioTest, OneShardClosedLoopMatchesHandWiredGroup) {
  const core::PipelineConfig pipeline = SmallPipeline();
  const auto twin = SmallPhased(0.0, 8);
  const auto stale = core::BuildInstrumentedForWorkload(twin, pipeline).value();
  const auto drifted = SmallPhased(1.0, 0);
  constexpr int kTasks = 16;

  // Reference: the one-shard group wired by hand, scavengers serving further
  // requests of the same workload.
  sim::Machine machine(pipeline.machine);
  drifted.InitMemory(machine.memory());
  adapt::ServerGroup group(&drifted.program(), stale, {&machine},
                           OneShard(pipeline, /*adapting=*/true));
  for (int i = 0; i < kTasks; ++i) {
    group.AddTask(0, drifted.SetupFor(i));
  }
  int extra = kTasks;
  group.SetScavengerFactory(
      0, [&drifted, extra]() mutable
             -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        return drifted.SetupFor(extra++);
      });
  auto reference = group.Run();
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GE(reference->shards[0].swaps, 1);  // the run spans a hot swap

  Spec spec;
  spec.workload = &drifted;
  spec.initial = &stale;
  spec.group = OneShard(pipeline, /*adapting=*/true);
  spec.load.tasks_per_shard = kTasks;
  auto outcome = scenario::Run(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  EXPECT_EQ(outcome->report.shards[0].Summary(),
            reference->shards[0].Summary());
  EXPECT_EQ(outcome->report.Summary(), reference->Summary());
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(drifted.ReadResult(outcome->machines[0]->memory(), i),
              drifted.ReadResult(machine.memory(), i))
        << "task " << i;
  }
  EXPECT_EQ(outcome->correct_results, kTasks);
  EXPECT_EQ(outcome->site_index, group.controller().site_index());
}

TEST(ScenarioTest, FailedFrontEndFailsTheRun) {
  const core::PipelineConfig pipeline = SmallPipeline();
  const auto twin = SmallPhased(0.0, 8);
  const auto stale = core::BuildInstrumentedForWorkload(twin, pipeline).value();

  // A budget that runs out while the idle front end donates cycles to the
  // scavengers serving queued requests, not inside a primary task.
  adapt::ServerGroupConfig config = OneShard(pipeline, /*adapting=*/false);
  config.shard.dual.max_total_instructions = 50'400;
  serve::FrontEndConfig front_end;
  front_end.arrival.kind = serve::ArrivalConfig::Kind::kBurst;
  front_end.arrival.rate_per_kcycle = 0.04;
  front_end.arrival.horizon_cycles = 400'000;

  // Reference: wired by hand, the group reads the failed front end as an
  // exhausted source and reports success.
  sim::Machine machine(pipeline.machine);
  twin.InitMemory(machine.memory());
  adapt::ServerGroup group(&twin.program(), stale, {&machine}, config);
  serve::FrontEndConfig seeded = front_end;
  seeded.arrival.seed = 1;
  seeded.id_seed = 1;
  serve::ShardFrontEnd front(
      seeded,
      [&twin](uint64_t id) { return twin.SetupFor(static_cast<int>(id)); },
      nullptr, nullptr, obs::Labels{});
  group.SetRequestSource(0, &front);
  group.SetScavengerFactory(0, front.MakeScavengerFactory());
  ASSERT_TRUE(group.Run().ok());
  ASSERT_EQ(front.status().code(), StatusCode::kResourceExhausted);

  Spec spec;
  spec.workload = &twin;
  spec.initial = &stale;
  spec.group = config;
  spec.front_end = front_end;
  spec.load.open_loop = true;
  spec.seed = 1;
  auto outcome = scenario::Run(spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(outcome.status().message().find("shard 0"), std::string::npos)
      << outcome.status();
}

}  // namespace
}  // namespace yieldhide::scenario
