//===- tests/PipelineSimTest.cpp - Pipeline simulation tests ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/PipelineSim.h"

#include "apps/PipelineApps.h"
#include "mechanisms/Seda.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/Fdp.h"
#include "mechanisms/Tpc.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace dope;

namespace {

PipelineSimOptions quickOptions(uint64_t Items = 600, uint64_t Seed = 5) {
  PipelineSimOptions Opts;
  Opts.Contexts = 24;
  Opts.NumItems = Items;
  Opts.Seed = Seed;
  return Opts;
}

/// A small balanced pipeline for focused tests.
PipelineAppModel tinyApp() {
  PipelineAppModel App;
  App.Name = "tiny";
  App.Stages = {{"in", false, 0.05, 0.0},
                {"work", true, 1.0, 0.0},
                {"out", false, 0.05, 0.0}};
  App.OversubPenalty = 0.1;
  App.ThreadOverheadPenalty = 0.1;
  return App;
}

TEST(PipelineSim, CompletesAllItems) {
  PipelineSim Sim(tinyApp(), quickOptions(200));
  PipelineSimResult R = Sim.run(nullptr, {1, 4, 1});
  EXPECT_EQ(R.ItemsCompleted, 200u);
  EXPECT_GT(R.Throughput, 0.0);
}

TEST(PipelineSim, DeterministicForSeed) {
  PipelineSim A(tinyApp(), quickOptions(200, 42));
  PipelineSim B(tinyApp(), quickOptions(200, 42));
  PipelineSimResult RA = A.run(nullptr, {1, 4, 1});
  PipelineSimResult RB = B.run(nullptr, {1, 4, 1});
  EXPECT_DOUBLE_EQ(RA.Throughput, RB.Throughput);
  EXPECT_DOUBLE_EQ(RA.TotalSeconds, RB.TotalSeconds);
}

TEST(PipelineSim, ThroughputMatchesAnalyticBound) {
  // Deterministic service times: measured throughput approaches the
  // bottleneck capacity min_i(n_i / s_i) = 4 / 1.0.
  PipelineSim Sim(tinyApp(), quickOptions(800));
  PipelineSimResult R = Sim.run(nullptr, {1, 4, 1});
  const double Analytic = Sim.analyticThroughput({1, 4, 1});
  EXPECT_NEAR(Analytic, 4.0, 1e-9);
  EXPECT_NEAR(R.Throughput, Analytic, Analytic * 0.1);
}

TEST(PipelineSim, MoreThreadsMoreThroughputUntilCpuBound) {
  PipelineSim Sim(tinyApp(), quickOptions(800));
  const double T4 = Sim.run(nullptr, {1, 4, 1}).Throughput;
  const double T12 = Sim.run(nullptr, {1, 12, 1}).Throughput;
  EXPECT_GT(T12, T4 * 2.0);
  // Beyond the contexts, the pool bound kicks in: 48 worker threads on
  // 24 contexts cannot triple 12-thread throughput.
  const double T48 = Sim.run(nullptr, {1, 48, 1}).Throughput;
  EXPECT_LT(T48, T12 * 2.5);
}

TEST(PipelineSim, AnalyticOversubscriptionPenalty) {
  PipelineAppModel App = tinyApp();
  App.ThreadOverheadPenalty = 1.0;
  PipelineSim Sim(App, quickOptions());
  // 50 threads on 24 contexts: footprint factor 1/(1 + 26/24) ~ 0.48.
  const double Fitted = Sim.analyticThroughput({1, 22, 1});
  const double Oversub = Sim.analyticThroughput({1, 48, 1});
  EXPECT_LT(Oversub, Fitted);
}

TEST(PipelineSim, ImbalancedStagesBottleneckThroughput) {
  PipelineAppModel App;
  App.Name = "imbalanced";
  App.Stages = {{"a", true, 1.0, 0.0}, {"b", true, 4.0, 0.0}};
  PipelineSim Sim(App, quickOptions(400));
  // Even split 2/2: bottleneck 2/4 = 0.5. Skewed 1/3: 3/4 = 0.75.
  const double Even = Sim.run(nullptr, {2, 2}).Throughput;
  const double Skewed = Sim.run(nullptr, {1, 3}).Throughput;
  EXPECT_GT(Skewed, Even * 1.3);
}

TEST(PipelineSim, OpenLoopResponseTimesRecorded) {
  PipelineSimOptions Opts = quickOptions(300);
  Opts.OpenLoop = true;
  Opts.ArrivalRate = 2.0; // capacity is 4/s at {1,4,1}
  PipelineSim Sim(tinyApp(), Opts);
  PipelineSimResult R = Sim.run(nullptr, {1, 4, 1});
  EXPECT_EQ(R.ItemsCompleted, 300u);
  EXPECT_EQ(R.Stats.count(), 300u);
  // Light load: response ~ pipeline latency (1.1 s) with little queueing.
  EXPECT_GT(R.Stats.meanResponseTime(), 1.0);
  EXPECT_LT(R.Stats.meanResponseTime(), 3.0);
}

TEST(PipelineSim, OpenLoopSaturationGrowsResponseTime) {
  PipelineSimOptions Light = quickOptions(300);
  Light.OpenLoop = true;
  Light.ArrivalRate = 2.0;
  PipelineSim LightSim(tinyApp(), Light);
  const double LightResponse =
      LightSim.run(nullptr, {1, 4, 1}).Stats.meanResponseTime();

  PipelineSimOptions Heavy = quickOptions(300);
  Heavy.OpenLoop = true;
  Heavy.ArrivalRate = 6.0; // above the 4/s capacity
  PipelineSim HeavySim(tinyApp(), Heavy);
  const double HeavyResponse =
      HeavySim.run(nullptr, {1, 4, 1}).Stats.meanResponseTime();
  EXPECT_GT(HeavyResponse, LightResponse * 3.0);
}

TEST(PipelineSim, TbfConvergesToBalancedAssignment) {
  PipelineAppModel App = makeFerretApp();
  PipelineSimOptions Opts = quickOptions(1500);
  PipelineSim Sim(App, Opts);
  TbfMechanism Tbf({0.5, /*EnableFusion=*/false});
  PipelineSimResult R = Sim.run(&Tbf, {});
  EXPECT_EQ(R.ItemsCompleted, 1500u);
  EXPECT_GE(R.Reconfigurations, 1u);
  // The extract stage (8 s) ends with the lion's share of threads.
  ASSERT_EQ(R.FinalExtents.size(), 6u);
  EXPECT_GT(R.FinalExtents[2], R.FinalExtents[1]);
  EXPECT_GT(R.FinalExtents[2], R.FinalExtents[3]);
}

TEST(PipelineSim, TbfFusionSwitchesAlternative) {
  PipelineAppModel App = makeFerretApp();
  PipelineSim Sim(App, quickOptions(1500));
  TbfMechanism Tbf({0.5, /*EnableFusion=*/true});
  PipelineSimResult R = Sim.run(&Tbf, {});
  EXPECT_EQ(R.ItemsCompleted, 1500u);
  EXPECT_TRUE(R.EndedFused);
}

TEST(PipelineSim, TbfBeatsEvenStaticOnFerret) {
  // The core Table 15 shape: DoPE-TBF > Pthreads-Baseline (even split).
  PipelineAppModel App = makeFerretApp();
  PipelineSim Sim(App, quickOptions(1500));

  // The even split of 22 threads over ferret's 4 parallel stages.
  const std::vector<unsigned> Even = {1, 6, 6, 5, 5, 1};
  const double Baseline = Sim.run(nullptr, Even).Throughput;

  TbfMechanism Tbf;
  const double Adaptive = Sim.run(&Tbf, Even).Throughput;
  EXPECT_GT(Adaptive, Baseline * 1.5);
}

TEST(PipelineSim, SedaRunsAndAdapts) {
  PipelineAppModel App = makeFerretApp();
  PipelineSim Sim(App, quickOptions(1000));
  SedaMechanism Seda;
  PipelineSimResult R = Sim.run(&Seda, {});
  EXPECT_EQ(R.ItemsCompleted, 1000u);
  EXPECT_GE(R.Reconfigurations, 1u);
}

TEST(PipelineSim, PowerSeriesSampled) {
  PipelineSim Sim(tinyApp(), quickOptions(400));
  PipelineSimResult R = Sim.run(nullptr, {1, 8, 1});
  EXPECT_FALSE(R.PowerSeries.empty());
  // Power stays within the model's range.
  for (size_t I = 0; I != R.PowerSeries.size(); ++I) {
    EXPECT_GE(R.PowerSeries.point(I).Value, 450.0);
    EXPECT_LE(R.PowerSeries.point(I).Value, 600.0);
  }
}

TEST(PipelineSim, TpcRespectsPowerBudget) {
  PipelineAppModel App = makeFerretApp();
  PipelineSimOptions Opts = quickOptions(2500);
  Opts.PowerBudgetWatts = 540.0; // 90% of peak
  Opts.DecisionIntervalSeconds = 1.0;
  PipelineSim Sim(App, Opts);
  TpcMechanism Tpc;
  PipelineSimResult R = Sim.run(&Tpc, {});
  EXPECT_EQ(R.ItemsCompleted, 2500u);
  // After the controller stabilizes, sampled power must hover at or
  // below the budget (allow the ramp/overshoot prefix).
  double LatePowerMax = 0.0;
  const double Cutoff = R.TotalSeconds * 0.6;
  for (size_t I = 0; I != R.PowerSeries.size(); ++I)
    if (R.PowerSeries.point(I).Time > Cutoff)
      LatePowerMax = std::max(LatePowerMax, R.PowerSeries.point(I).Value);
  EXPECT_LE(LatePowerMax, 540.0 + 6.25 + 1e-9); // within one core
}

TEST(PipelineSim, DisturbanceSlowsAStage) {
  PipelineSim Sim(tinyApp(), quickOptions(400));
  Disturbance D;
  D.Time = 0.0;
  D.Stage = 1;
  D.Factor = 2.0;
  Sim.addDisturbance(D);
  const double Slowed = Sim.run(nullptr, {1, 4, 1}).Throughput;
  Sim.clearDisturbances();
  const double Normal = Sim.run(nullptr, {1, 4, 1}).Throughput;
  EXPECT_GT(Normal, Slowed * 1.6);
}

TEST(PipelineSim, SequentialStagePinnedEvenIfConfigSaysOtherwise) {
  PipelineSim Sim(tinyApp(), quickOptions(100));
  PipelineSimResult R = Sim.run(nullptr, {5, 4, 5});
  ASSERT_EQ(R.FinalExtents.size(), 3u);
  EXPECT_EQ(R.FinalExtents[0], 1u);
  EXPECT_EQ(R.FinalExtents[2], 1u);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(PipelineSimFaults, ContextKillsWedgeStaticRun) {
  // A static assignment never reconfigures, so replicas wedged by the
  // kill hold their items forever and the batch cannot resolve: the run
  // ends only at the safety bound, with the lost capacity visible in
  // the live-context accounting.
  PipelineSimOptions Opts = quickOptions(300);
  Opts.MaxSimSeconds = 200.0;
  PipelineSim Sim(tinyApp(), Opts);
  FaultPlan Plan;
  Plan.Kills.push_back({/*Time=*/5.0, /*Count=*/4});
  Sim.setFaultPlan(Plan);
  PipelineSimResult R = Sim.run(nullptr, {1, 8, 1});
  EXPECT_EQ(R.Faults.ContextsKilled, 4u);
  EXPECT_GE(R.Faults.ReplicasWedged, 1u);
  EXPECT_LE(R.Faults.ReplicasWedged, 4u);
  EXPECT_EQ(R.LiveContextsAtEnd, 20u);
  EXPECT_NEAR(R.FirstFaultTime, 5.0, 1e-9);
  EXPECT_LT(R.ItemsCompleted, 300u);
  EXPECT_DOUBLE_EQ(R.TotalSeconds, 200.0);
}

TEST(PipelineSimFaults, AdaptiveMechanismRecoversFromContextKills) {
  // Same kill under SEDA: the wedged stage's queue grows, SEDA widens
  // it, and the reconfiguration respawns the replicas on live contexts,
  // salvaging the stuck items — the batch completes well before the
  // safety bound.
  PipelineSimOptions Opts = quickOptions(300);
  Opts.MaxSimSeconds = 200.0;
  PipelineSim Sim(tinyApp(), Opts);
  FaultPlan Plan;
  Plan.Kills.push_back({/*Time=*/5.0, /*Count=*/4});
  Sim.setFaultPlan(Plan);
  SedaMechanism Seda;
  PipelineSimResult R = Sim.run(&Seda, {1, 8, 1});
  EXPECT_EQ(R.ItemsCompleted, 300u);
  EXPECT_GE(R.Reconfigurations, 1u);
  EXPECT_GE(R.Faults.ReplicasWedged, 1u);
  EXPECT_LT(R.TotalSeconds, 200.0);
}

TEST(PipelineSimFaults, AdmissionControlBoundsOuterQueueAndCountsShed) {
  PipelineAppModel App = tinyApp();
  PipelineSimOptions Opts = quickOptions(400);
  Opts.OpenLoop = true;
  Opts.ArrivalRate = 3.0; // capacity 4/s at {1,4,1}
  Opts.ArrivalTrace = LoadTrace::makeBurstPattern(1.0, 4.0, 30.0, 30.0);
  Opts.AdmissionLimit = 16;
  PipelineSim Sim(App, Opts);
  PipelineSimResult R = Sim.run(nullptr, {1, 4, 1});
  EXPECT_LE(R.PeakOuterQueue, 16u);
  EXPECT_GT(R.Faults.ItemsShed, 0u);
  // Every arrival is accounted for: completed or shed, nothing vanishes.
  EXPECT_EQ(R.ItemsCompleted + R.Faults.ItemsShed, 400u);

  Opts.AdmissionLimit = 0;
  PipelineSim NoAc(App, Opts);
  PipelineSimResult RN = NoAc.run(nullptr, {1, 4, 1});
  EXPECT_GT(RN.PeakOuterQueue, 16u);
  EXPECT_EQ(RN.Faults.ItemsShed, 0u);
  EXPECT_EQ(RN.ItemsCompleted, 400u);
}

TEST(PipelineSimFaults, HandoffDropsAccounted) {
  PipelineSimOptions Opts = quickOptions(400);
  Opts.MaxSimSeconds = 500.0;
  PipelineSim Sim(tinyApp(), Opts);
  FaultPlan Plan;
  Plan.HandoffDropProbability = 0.05;
  Sim.setFaultPlan(Plan);
  PipelineSimResult R = Sim.run(nullptr, {1, 4, 1});
  EXPECT_GT(R.Faults.ItemsDropped, 0u);
  EXPECT_EQ(R.ItemsCompleted + R.Faults.ItemsDropped, 400u);
  // Lost items must not stall batch termination.
  EXPECT_LT(R.TotalSeconds, 500.0);
}

TEST(PipelineSimFaults, StallEventRecordedAsIncidentAndReverts) {
  PipelineSimOptions Opts = quickOptions(300);
  PipelineSim Sim(tinyApp(), Opts);
  FaultPlan Plan;
  Plan.Stalls.push_back(
      {/*Time=*/5.0, /*Stage=*/1, /*Factor=*/4.0, /*DurationSeconds=*/10.0});
  Sim.setFaultPlan(Plan);
  PipelineSimResult Stalled = Sim.run(nullptr, {1, 4, 1});
  EXPECT_GE(Stalled.Faults.Incidents, 1u);
  EXPECT_EQ(Stalled.ItemsCompleted, 300u);

  Sim.setFaultPlan(FaultPlan());
  PipelineSimResult Clean = Sim.run(nullptr, {1, 4, 1});
  // The stall costs time but reverts, so the run finishes — slower than
  // the fault-free baseline, faster than a permanent 4x degradation.
  EXPECT_GT(Stalled.TotalSeconds, Clean.TotalSeconds);
  EXPECT_LT(Stalled.TotalSeconds, Clean.TotalSeconds * 4.0);
}

TEST(PipelineSimFaults, FaultInjectionDeterministicForSeed) {
  FaultPlan Plan;
  Plan.Kills.push_back({/*Time=*/4.0, /*Count=*/3});
  Plan.StragglerProbability = 0.05;
  Plan.StragglerFactor = 3.0;
  Plan.HandoffDropProbability = 0.02;

  auto RunOnce = [&Plan] {
    PipelineSimOptions Opts = quickOptions(300, 11);
    Opts.MaxSimSeconds = 400.0;
    PipelineSim Sim(tinyApp(), Opts);
    Sim.setFaultPlan(Plan);
    SedaMechanism Seda;
    return Sim.run(&Seda, {1, 6, 1});
  };
  PipelineSimResult A = RunOnce();
  PipelineSimResult B = RunOnce();
  EXPECT_DOUBLE_EQ(A.Throughput, B.Throughput);
  EXPECT_EQ(A.ItemsCompleted, B.ItemsCompleted);
  EXPECT_EQ(A.Faults.ReplicasWedged, B.Faults.ReplicasWedged);
  EXPECT_EQ(A.Faults.ItemsDropped, B.Faults.ItemsDropped);
  EXPECT_EQ(A.Reconfigurations, B.Reconfigurations);
}

//===----------------------------------------------------------------------===//
// Golden result: the full PipelineSimResult of three pinned runs
//===----------------------------------------------------------------------===//

std::string g17(double D) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", D);
  return Buf;
}

void writeSeries(std::ostream &OS, const TimeSeries &S) {
  OS << S.name() << ' ' << S.size() << " points\n";
  for (const TimeSeries::Point &P : S.points())
    OS << g17(P.Time) << ' ' << g17(P.Value) << "\n";
}

/// Serializes every field of \p R, doubles as %.17g.
void writeResult(std::ostream &OS, const std::string &Label,
                 const PipelineSimResult &R) {
  const ResponseStats &S = R.Stats;
  const VerdictCounts &V = R.Verdicts;
  const FaultStats &F = R.Faults;
  OS << "== run " << Label << "\n";
  OS << "items " << R.ItemsCompleted << " total_seconds "
     << g17(R.TotalSeconds) << " throughput " << g17(R.Throughput) << "\n";
  OS << "stats count=" << S.count() << " mean=" << g17(S.meanResponseTime())
     << " exec=" << g17(S.meanExecTime()) << " wait=" << g17(S.meanWaitTime())
     << " p50=" << g17(S.responsePercentile(0.50))
     << " p95=" << g17(S.responsePercentile(0.95))
     << " p99=" << g17(S.responsePercentile(0.99))
     << " max=" << g17(S.maxResponseTime())
     << " throughput=" << g17(S.throughput()) << "\n";
  OS << "verdicts unchanged=" << V.Unchanged << " pending=" << V.Pending
     << " accepted=" << V.Accepted << " invalid=" << V.Invalid
     << " over_envelope=" << V.OverEnvelope << "\n";
  OS << "reconfigurations " << R.Reconfigurations << "\n";
  OS << "final_extents";
  for (unsigned E : R.FinalExtents)
    OS << ' ' << E;
  OS << "\nended_fused " << R.EndedFused << "\n";
  OS << "faults kills=" << F.ContextsKilled << " wedged=" << F.ReplicasWedged
     << " incidents=" << F.Incidents << " retries=" << F.Retries
     << " shed=" << F.ItemsShed << " dropped=" << F.ItemsDropped
     << " recover=" << g17(F.TimeToRecoverSeconds) << "\n";
  OS << "first_fault_time " << g17(R.FirstFaultTime) << "\n";
  OS << "live_contexts_at_end " << R.LiveContextsAtEnd << "\n";
  OS << "peak_outer_queue " << R.PeakOuterQueue << "\n";
  writeSeries(OS, R.ThroughputSeries);
  writeSeries(OS, R.PowerSeries);
  writeSeries(OS, R.ThreadsSeries);
}

/// The three pinned runs: ferret under FDP; TPC under a 90% power cap
/// with fig14's decision, window and power-sample intervals and its
/// extract-stage disturbance; and an open-loop TBF run with fusion and
/// faults whose 0.5 s decisions fall due together with every other
/// 0.25 s power sample. A fusion switch empties the running set, so the
/// power sample taken at the same time shows which tick ran first.
std::string goldenRuns() {
  const PipelineAppModel Ferret = makeFerretApp();
  std::ostringstream OS;
  {
    PipelineSim Sim(Ferret, quickOptions(400, 7));
    FdpMechanism Fdp;
    writeResult(OS, "ferret-FDP", Sim.run(&Fdp, {}));
  }
  {
    PipelineSimOptions Opts = quickOptions(400, 9);
    Opts.DecisionIntervalSeconds = 5.0;
    Opts.TraceWindowSeconds = 10.0;
    Opts.PowerSampleIntervalSeconds = 60.0 / 13.0;
    Opts.PowerBudgetWatts = 0.9 * Opts.Power.peakWatts();
    PipelineSim Sim(Ferret, Opts);
    Disturbance D;
    D.Time = 60.0;
    D.Stage = 2;
    D.Factor = 1.6;
    D.Duration = 20.0;
    Sim.addDisturbance(D);
    TpcMechanism Tpc;
    writeResult(OS, "ferret-TPC-cap", Sim.run(&Tpc, {}));
  }
  {
    PipelineSimOptions Opts = quickOptions(300, 13);
    Opts.OpenLoop = true;
    Opts.ArrivalRate = 1.0;
    Opts.ArrivalTrace = LoadTrace::makeBurstPattern(1.0, 2.5, 20.0, 20.0);
    Opts.AdmissionLimit = 8;
    Opts.DecisionIntervalSeconds = 0.5;
    Opts.PowerSampleIntervalSeconds = 0.25;
    Opts.MaxSimSeconds = 400.0;
    PipelineSim Sim(Ferret, Opts);
    FaultPlan Plan;
    Plan.Kills.push_back({/*Time=*/10.0, /*Count=*/4});
    Plan.Stalls.push_back(
        {/*Time=*/20.0, /*Stage=*/2, /*Factor=*/3.0, /*DurationSeconds=*/5.0});
    Plan.HandoffDropProbability = 0.02;
    Sim.setFaultPlan(Plan);
    TbfMechanism Tbf({0.5, /*EnableFusion=*/true});
    writeResult(OS, "ferret-TBF-faults", Sim.run(&Tbf, {1, 6, 6, 5, 5, 1}));
  }
  return OS.str();
}

/// Byte-for-byte pin of the simulator's output. Set DOPE_REGEN_GOLDEN=1
/// (the trace-regen target does) to rewrite the golden instead.
TEST(PipelineSim, ResultsMatchGolden) {
  const std::string Path =
      std::string(DOPE_GOLDEN_DIR) + "/pipeline-sim.results.txt";
  const std::string Actual = goldenRuns();
  if (std::getenv("DOPE_REGEN_GOLDEN")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream IS(Path, std::ios::binary);
  ASSERT_TRUE(IS.good()) << "missing golden: " << Path
                         << " (run the trace-regen target)";
  std::stringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(Golden.str(), Actual)
      << "PipelineSim output diverged from the golden (intentional "
         "change? regenerate with the trace-regen target and review the "
         "diff)";
}

} // namespace
