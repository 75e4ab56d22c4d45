// Coverage for the small surfaces the module-focused suites skip: pipeline
// config derivation, report renderings, the event fan-out, machine clock
// helpers, and exact-stats summaries.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/runtime/report.h"
#include "src/sim/exact_stats.h"
#include "src/sim/machine.h"

namespace yieldhide {
namespace {

// --- PipelineConfig::Finalize ---------------------------------------------------

TEST(PipelineConfigTest, FinalizeDerivesCostModelsFromMachine) {
  core::PipelineConfig config;
  config.machine.cost.yield_switch_cycles = 48;
  config.scavenger.target_interval_cycles = 123;
  config.Finalize();
  // Both passes share the machine-derived switch decomposition...
  EXPECT_EQ(config.primary.cost_model.SwitchCycles(analysis::kAllRegs), 48u);
  EXPECT_EQ(config.scavenger.cost_model.SwitchCycles(analysis::kAllRegs), 48u);
  // ...and the primary pass's hideable window tracks the scavenger target.
  EXPECT_EQ(config.primary.cost_model.hideable_window_cycles, 123u);
  EXPECT_EQ(config.scavenger.machine_cost.yield_switch_cycles, 48u);
}

// --- Machine ----------------------------------------------------------------------

TEST(MachineTest, ClockHelpers) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  EXPECT_EQ(machine.now(), 0u);
  machine.AdvanceClock(10);
  machine.AdvanceClockTo(5);  // never goes backwards
  EXPECT_EQ(machine.now(), 10u);
  machine.AdvanceClockTo(25);
  EXPECT_EQ(machine.now(), 25u);
  EXPECT_DOUBLE_EQ(machine.CyclesToNs(30), 10.0);  // 3 GHz
}

TEST(MachineTest, ResetKeepsDataMemory) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  machine.memory().Write64(0x100, 7);
  machine.hierarchy().AccessLoad(0x100, 0);
  machine.AdvanceClock(500);
  machine.ResetMicroarchState();
  EXPECT_EQ(machine.now(), 0u);
  EXPECT_EQ(machine.hierarchy().ProbeLevel(0x100), sim::HitLevel::kDram);
  EXPECT_EQ(machine.memory().Read64(0x100), 7u);  // data survives
}

// --- MulticastListener --------------------------------------------------------------

class CountingListener : public sim::EventListener {
 public:
  int retired = 0, loads = 0, stalls = 0, branches = 0, prefetches = 0, yields = 0;
  void OnRetired(int, isa::Addr, isa::Opcode, uint64_t) override { ++retired; }
  void OnLoad(int, isa::Addr, uint64_t, sim::HitLevel, bool, uint32_t,
              uint64_t) override {
    ++loads;
  }
  void OnStall(int, isa::Addr, uint32_t, uint64_t) override { ++stalls; }
  void OnBranch(int, isa::Addr, isa::Addr, bool, uint64_t) override { ++branches; }
  void OnPrefetch(int, isa::Addr, uint64_t, uint64_t) override { ++prefetches; }
  void OnYield(int, isa::Addr, bool, uint64_t) override { ++yields; }
};

// Logs every call it receives as "<name>:<event>" into a shared journal.
class JournalListener : public sim::EventListener {
 public:
  JournalListener(std::string name, uint32_t events, std::vector<std::string>* journal)
      : name_(std::move(name)), events_(events), journal_(journal) {}
  uint32_t Events() const override { return events_; }
  void OnRetired(int, isa::Addr, isa::Opcode, uint64_t) override { Log("retired"); }
  void OnLoad(int, isa::Addr, uint64_t, sim::HitLevel, bool, uint32_t,
              uint64_t) override {
    Log("load");
  }
  void OnStall(int, isa::Addr, uint32_t, uint64_t) override { Log("stall"); }
  void OnBranch(int, isa::Addr, isa::Addr, bool, uint64_t) override { Log("branch"); }
  void OnPrefetch(int, isa::Addr, uint64_t, uint64_t) override { Log("prefetch"); }
  void OnYield(int, isa::Addr, bool, uint64_t) override { Log("yield"); }

 private:
  void Log(const char* event) { journal_->push_back(name_ + ":" + event); }

  std::string name_;
  uint32_t events_;
  std::vector<std::string>* journal_;
};

void FireAllSix(sim::MulticastListener& fanout) {
  fanout.OnRetired(0, 1, isa::Opcode::kNop, 0);
  fanout.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
  fanout.OnStall(0, 1, 5, 0);
  fanout.OnBranch(0, 1, 2, true, 0);
  fanout.OnPrefetch(0, 1, 0, 0);
  fanout.OnYield(0, 1, false, 0);
}

TEST(MulticastListenerTest, FansOutEveryEventToEveryListener) {
  sim::MulticastListener fanout;
  CountingListener a, b;  // the default Events(): all six
  EXPECT_EQ(a.Events(), static_cast<uint32_t>(sim::kAllEvents));
  fanout.Add(&a);
  fanout.Add(&b);
  FireAllSix(fanout);
  for (const CountingListener* l : {&a, &b}) {
    EXPECT_EQ(l->retired, 1);
    EXPECT_EQ(l->loads, 1);
    EXPECT_EQ(l->stalls, 1);
    EXPECT_EQ(l->branches, 1);
    EXPECT_EQ(l->prefetches, 1);
    EXPECT_EQ(l->yields, 1);
  }
  EXPECT_EQ(fanout.size(), 2u);
  fanout.Clear();
  EXPECT_EQ(fanout.size(), 0u);
}

TEST(MulticastListenerTest, DeliversOnlyTheDeclaredEventsInRegistrationOrder) {
  std::vector<std::string> journal;
  JournalListener loads("loads", sim::kEventLoad, &journal);
  JournalListener all("all", sim::kAllEvents, &journal);
  JournalListener branch_yield("by", sim::kEventBranch | sim::kEventYield, &journal);
  JournalListener none("none", 0, &journal);
  sim::MulticastListener fanout;
  fanout.Add(&branch_yield);
  fanout.Add(&loads);
  fanout.Add(&none);
  fanout.Add(&all);
  fanout.Add(&loads);  // twice: called twice, in both positions
  EXPECT_EQ(fanout.size(), 5u);
  FireAllSix(fanout);
  const std::vector<std::string> expected = {
      "all:retired",                                        //
      "loads:load",   "all:load",     "loads:load",         //
      "all:stall",                                          //
      "by:branch",    "all:branch",                         //
      "all:prefetch",                                       //
      "by:yield",     "all:yield",
  };
  EXPECT_EQ(journal, expected);
}

TEST(MulticastListenerTest, RemoveAndClearDropTheListenerFromEveryEvent) {
  std::vector<std::string> journal;
  JournalListener a("a", sim::kAllEvents, &journal);
  JournalListener b("b", sim::kEventLoad | sim::kEventStall, &journal);
  sim::MulticastListener fanout;
  fanout.Add(&a);
  fanout.Add(&b);
  fanout.Add(&a);
  fanout.Remove(&a);  // every registration of a
  EXPECT_EQ(fanout.size(), 1u);
  FireAllSix(fanout);
  EXPECT_EQ(journal, (std::vector<std::string>{"b:load", "b:stall"}));

  journal.clear();
  fanout.Remove(&a);  // unknown: a no-op
  fanout.Clear();
  EXPECT_EQ(fanout.size(), 0u);
  FireAllSix(fanout);
  EXPECT_TRUE(journal.empty());

  // Re-adding after Clear subscribes afresh.
  fanout.Add(&b);
  FireAllSix(fanout);
  EXPECT_EQ(journal, (std::vector<std::string>{"b:load", "b:stall"}));
}

// --- ExactStats rendering ------------------------------------------------------------

TEST(ExactStatsTest, SummaryListsHottestSites) {
  sim::ExactStats stats;
  stats.OnRetired(0, 3, isa::Opcode::kLoad, 0);
  stats.OnLoad(0, 3, 0x100, sim::HitLevel::kDram, false, 196, 0);
  stats.OnStall(0, 3, 196, 0);
  stats.OnLoad(0, 5, 0x200, sim::HitLevel::kL2, false, 10, 0);
  stats.OnStall(0, 5, 10, 0);
  const std::string summary = stats.Summary(/*top_n=*/2);
  EXPECT_NE(summary.find("ip=3"), std::string::npos);
  EXPECT_NE(summary.find("stall=196"), std::string::npos);
  // Hottest first.
  EXPECT_LT(summary.find("ip=3"), summary.find("ip=5"));
  stats.Reset();
  EXPECT_EQ(stats.total_stall_cycles(), 0u);
  EXPECT_EQ(stats.HottestIps(10).size(), 0u);
}

TEST(ExactStatsTest, PerIpRatios) {
  sim::ExactStats stats;
  for (int i = 0; i < 3; ++i) {
    stats.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
  }
  stats.OnLoad(0, 1, 0, sim::HitLevel::kDram, false, 196, 0);
  const auto& site = stats.ForIp(1);
  EXPECT_DOUBLE_EQ(site.MissRatio(), 0.25);
  EXPECT_DOUBLE_EQ(site.L2MissRatio(), 0.25);
  EXPECT_DOUBLE_EQ(stats.ForIp(99).MissRatio(), 0.0);  // unknown IP
}

// --- Report renderings ----------------------------------------------------------------

TEST(ReportTest, RunReportFractionsSumSensibly) {
  runtime::RunReport report;
  report.total_cycles = 1000;
  report.issue_cycles = 400;
  report.stall_cycles = 350;
  report.switch_cycles = 250;
  report.instructions = 200;
  EXPECT_DOUBLE_EQ(report.CpuEfficiency(), 0.4);
  EXPECT_DOUBLE_EQ(report.StallFraction(), 0.35);
  EXPECT_DOUBLE_EQ(report.SwitchFraction(), 0.25);
  EXPECT_DOUBLE_EQ(report.Ipc(), 0.2);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("efficiency=40.0%"), std::string::npos);
  EXPECT_NE(summary.find("IPC=0.200"), std::string::npos);
}

TEST(ReportTest, EmptyReportIsAllZeros) {
  runtime::RunReport report;
  EXPECT_DOUBLE_EQ(report.CpuEfficiency(), 0.0);
  EXPECT_DOUBLE_EQ(report.Ipc(), 0.0);
  EXPECT_EQ(report.LatencyHistogramOf().count(), 0u);
}

TEST(YieldKindTest, NamesAreStable) {
  EXPECT_STREQ(instrument::YieldKindName(instrument::YieldKind::kPrimary), "primary");
  EXPECT_STREQ(instrument::YieldKindName(instrument::YieldKind::kScavenger),
               "scavenger");
  EXPECT_STREQ(instrument::YieldKindName(instrument::YieldKind::kManual), "manual");
}

TEST(HitLevelTest, NamesAreStable) {
  EXPECT_STREQ(sim::HitLevelName(sim::HitLevel::kL1), "L1");
  EXPECT_STREQ(sim::HitLevelName(sim::HitLevel::kDram), "DRAM");
}

}  // namespace
}  // namespace yieldhide
