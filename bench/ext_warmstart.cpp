//===- bench/ext_warmstart.cpp - Warm-start convergence ablation -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warm-start ablation: does seeding a mechanism with the what-if
/// profiler's recommendation actually buy faster convergence, and at
/// what steady-state cost? Three measurements on the canonical what-if
/// pipeline scenario, all in deterministic virtual time:
///
///   1. Cold vs hinted FDP on one long item stream: completion time,
///      time to reach 90% of steady throughput, and the steady
///      throughput itself. The hint must converge faster at a steady
///      state no worse.
///
///   2. Warm restart: the same mechanism object re-run (run() resets
///      it). The hint survives reset by design — the second hinted run
///      must be as fast as the first, not degraded to cold.
///
///   3. Determinism: two identical hinted runs are bit-identical in
///      items, virtual time, and final extents.
///
///   4. Load step: the input mix shifts (compression turns 4x heavier,
///      moving the bottleneck off rank), invalidating the old optimum.
///      A worker restarted after the step either adapts from scratch or
///      is seeded with a hint the profiler computed from a short trace
///      of the stepped workload — the full offline loop again, at the
///      new operating point.
///
/// Exit status gates all three, so this doubles as a regression test
/// (bench.ext_warmstart). The headline ratio cold/hinted completion
/// time is the perf-suite metric whatif.warm_start_speedup.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "analysis/CriticalPath.h"
#include "analysis/Scenarios.h"
#include "analysis/TaskDag.h"
#include "analysis/WhatIf.h"
#include "core/WarmStart.h"
#include "mechanisms/Fdp.h"
#include "sim/PipelineSim.h"

#include <cstdio>

using namespace dope;
using namespace dope::bench;

namespace {

/// First virtual time the windowed throughput reaches 90% of the run's
/// steady state (mean over the final quarter).
double timeToConverge(const PipelineSimResult &R) {
  const TimeSeries &S = R.ThroughputSeries;
  if (S.empty())
    return R.TotalSeconds;
  const double Steady =
      S.meanOver(0.75 * R.TotalSeconds, R.TotalSeconds + 1.0);
  for (const TimeSeries::Point &P : S.points())
    if (P.Value >= 0.9 * Steady)
      return P.Time;
  return R.TotalSeconds;
}

double steadyThroughput(const PipelineSimResult &R) {
  return R.ThroughputSeries.meanOver(0.75 * R.TotalSeconds,
                                     R.TotalSeconds + 1.0);
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("Warm-start ablation: cold vs what-if-hinted "
                       "mechanism convergence");
  addCommonOptions(Options);
  parseOrExit(Options, Argc, Argv);
  const bool Csv = Options.getFlag("csv");
  const bool Quick = Options.getFlag("quick");

  // The offline loop, exactly as dope_whatif runs it: trace the scenario
  // baseline, reconstruct the DAG, profile, recommend, derive the hint.
  const WhatIfPipelineScenario Scenario = whatifPipelineScenario();
  const auto [Baseline, Records] = runWhatifPipelineScenario(Scenario);
  const WhatIfModel Model = WhatIfModel::fromProfile(
      computeCriticalPath(TaskDag::build(Records)), Scenario.Opts.Contexts,
      Scenario.App.OversubPenalty, Scenario.App.ThreadOverheadPenalty);
  const std::vector<Recommendation> Recs =
      recommendExtents(Model, Scenario.Opts.Contexts, 1);
  if (Recs.empty()) {
    std::fprintf(stderr, "no recommendation from the scenario trace\n");
    return 1;
  }
  const WarmStartHint Hint = makeWarmStartHint("FDP", Recs.front());

  WhatIfPipelineScenario Long = Scenario;
  Long.Opts.NumItems = Quick ? 2000 : 8000;
  auto RunWith = [&](Mechanism *Mech) {
    PipelineSim Sim(Long.App, Long.Opts);
    return Sim.run(Mech, {});
  };

  // --- 1: cold vs hinted -------------------------------------------------
  FdpMechanism Cold;
  const PipelineSimResult ColdR = RunWith(&Cold);
  FdpMechanism Hinted;
  Hinted.seedWarmStart(Hint);
  const PipelineSimResult HintedR = RunWith(&Hinted);

  const double ColdConv = timeToConverge(ColdR);
  const double HintedConv = timeToConverge(HintedR);
  const double Speedup =
      HintedR.TotalSeconds > 0.0 ? ColdR.TotalSeconds / HintedR.TotalSeconds
                                 : 0.0;

  // --- 2: warm restart (same objects, run() resets them) -----------------
  const PipelineSimResult ColdR2 = RunWith(&Cold);
  const PipelineSimResult HintedR2 = RunWith(&Hinted);

  // --- 3: determinism ----------------------------------------------------
  FdpMechanism HintedTwin;
  HintedTwin.seedWarmStart(Hint);
  const PipelineSimResult TwinR = RunWith(&HintedTwin);

  // --- 4: load step ------------------------------------------------------
  WhatIfPipelineScenario Stepped = Scenario;
  Stepped.App.Stages[2].ServiceSeconds *= 4.0;
  const auto [SteppedBase, SteppedRecords] =
      runWhatifPipelineScenario(Stepped);
  (void)SteppedBase;
  const WhatIfModel SteppedModel = WhatIfModel::fromProfile(
      computeCriticalPath(TaskDag::build(SteppedRecords)),
      Stepped.Opts.Contexts, Stepped.App.OversubPenalty,
      Stepped.App.ThreadOverheadPenalty);
  const std::vector<Recommendation> SteppedRecs =
      recommendExtents(SteppedModel, Stepped.Opts.Contexts, 1);
  if (SteppedRecs.empty()) {
    std::fprintf(stderr, "no recommendation from the stepped trace\n");
    return 1;
  }
  const WarmStartHint SteppedHint =
      makeWarmStartHint("FDP", SteppedRecs.front());

  WhatIfPipelineScenario SteppedLong = Stepped;
  SteppedLong.Opts.NumItems = Long.Opts.NumItems;
  auto RunStepped = [&](Mechanism *Mech) {
    PipelineSim Sim(SteppedLong.App, SteppedLong.Opts);
    return Sim.run(Mech, {});
  };
  FdpMechanism StepCold;
  const PipelineSimResult StepColdR = RunStepped(&StepCold);
  FdpMechanism StepHinted;
  StepHinted.seedWarmStart(SteppedHint);
  const PipelineSimResult StepHintedR = RunStepped(&StepHinted);
  const double StepColdConv = timeToConverge(StepColdR);
  const double StepHintedConv = timeToConverge(StepHintedR);

  Table T({"measurement", "cold", "hinted"});
  T.addRow({"completion (sim s)", Table::formatDouble(ColdR.TotalSeconds, 2),
            Table::formatDouble(HintedR.TotalSeconds, 2)});
  T.addRow({"time to 90% steady (sim s)", Table::formatDouble(ColdConv, 2),
            Table::formatDouble(HintedConv, 2)});
  T.addRow({"steady throughput (items/s)",
            Table::formatDouble(steadyThroughput(ColdR), 2),
            Table::formatDouble(steadyThroughput(HintedR), 2)});
  T.addRow({"restarted completion (sim s)",
            Table::formatDouble(ColdR2.TotalSeconds, 2),
            Table::formatDouble(HintedR2.TotalSeconds, 2)});
  T.addRow({"completion speedup (cold/hinted)", "",
            Table::formatDouble(Speedup, 3)});
  T.addRow({"post-step completion (sim s)",
            Table::formatDouble(StepColdR.TotalSeconds, 2),
            Table::formatDouble(StepHintedR.TotalSeconds, 2)});
  T.addRow({"post-step time to 90% steady (sim s)",
            Table::formatDouble(StepColdConv, 2),
            Table::formatDouble(StepHintedConv, 2)});
  emitTable("Warm-start ablation (FDP, what-if pipeline scenario)", T, Csv);

  bool Ok = true;
  auto Check = [&](bool Cond, const char *What) {
    std::printf("[%s] %s\n", Cond ? "ok  " : "FAIL", What);
    Ok &= Cond;
  };
  Check(HintedR.TotalSeconds < ColdR.TotalSeconds,
        "hinted run completes the stream sooner than cold");
  // The short stream ends while cold FDP is still climbing, which is
  // where the hint pays most (2.03x); on the long stream the climb is a
  // smaller share of the run, so only the ordering above is asserted.
  if (Quick)
    Check(Speedup >= 1.32, "hinted run completes the short stream at "
                           "least 1.32x sooner than cold");
  Check(HintedConv < ColdConv,
        "hinted run reaches 90% of steady throughput sooner");
  Check(steadyThroughput(HintedR) >= 0.95 * steadyThroughput(ColdR),
        "hinted steady state is no worse than cold (within 5%)");
  Check(HintedR2.TotalSeconds < ColdR2.TotalSeconds,
        "hint survives restart: re-run stays faster than re-run cold");
  Check(HintedR2.TotalSeconds <= 1.05 * HintedR.TotalSeconds,
        "restarted hinted run does not degrade toward cold");
  Check(TwinR.ItemsCompleted == HintedR.ItemsCompleted &&
            TwinR.TotalSeconds == HintedR.TotalSeconds &&
            TwinR.FinalExtents == HintedR.FinalExtents,
        "hinted runs are deterministic under the seed");
  Check(SteppedRecs.front().Extents != Recs.front().Extents,
        "load step moves the recommended optimum");
  Check(StepHintedR.TotalSeconds < StepColdR.TotalSeconds,
        "after the load step, the re-profiled hint completes sooner");
  Check(steadyThroughput(StepHintedR) >= 0.95 * steadyThroughput(StepColdR),
        "post-step hinted steady state is no worse than cold (within 5%)");
  return Ok ? 0 : 1;
}
