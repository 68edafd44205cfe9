//===- tests/NestServerSimTest.cpp - Nest server simulation tests ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/NestServerSim.h"

#include "apps/NestApps.h"
#include "mechanisms/Edp.h"
#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace dope;

namespace {

NestSimOptions quickOptions(double LoadFactor, uint64_t Seed = 7) {
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.LoadFactor = LoadFactor;
  Opts.NumTransactions = 400;
  Opts.Seed = Seed;
  return Opts;
}

TEST(NestServerSim, CompletesAllTransactions) {
  NestAppBundle App = makeX264App();
  NestServerSim Sim(App.Model, quickOptions(0.5));
  NestSimResult R = Sim.run(nullptr, 24, 1);
  EXPECT_EQ(R.Stats.count(), 400u);
  EXPECT_GT(R.TotalSeconds, 0.0);
}

TEST(NestServerSim, DeterministicForSeed) {
  NestAppBundle App = makeX264App();
  NestServerSim A(App.Model, quickOptions(0.5, 99));
  NestServerSim B(App.Model, quickOptions(0.5, 99));
  NestSimResult RA = A.run(nullptr, 3, 8);
  NestSimResult RB = B.run(nullptr, 3, 8);
  EXPECT_DOUBLE_EQ(RA.Stats.meanResponseTime(), RB.Stats.meanResponseTime());
  EXPECT_DOUBLE_EQ(RA.Throughput, RB.Throughput);
}

TEST(NestServerSim, InnerParallelismCutsExecTimeAtLightLoad) {
  // Fig. 2(a): exploiting intra-video parallelism gives much lower
  // per-video execution time — about 6.3x at extent 8.
  NestAppBundle App = makeX264App();
  NestServerSim Sim(App.Model, quickOptions(0.2));
  NestSimResult Seq = Sim.run(nullptr, 24, 1);
  NestSimResult Par = Sim.run(nullptr, 3, 8);
  const double Ratio = Seq.Stats.meanExecTime() / Par.Stats.meanExecTime();
  EXPECT_GT(Ratio, 5.0);
  EXPECT_LT(Ratio, 7.5);
}

TEST(NestServerSim, ThroughputSaturatesAtConfigCapacity) {
  // Fig. 2(b): at heavy load, inner parallelism degrades throughput
  // (speedup 6.3 on 8 threads is inefficient).
  NestAppBundle App = makeX264App();
  NestSimOptions Opts = quickOptions(1.0);
  Opts.NumTransactions = 600;
  NestServerSim Sim(App.Model, Opts);
  NestSimResult Seq = Sim.run(nullptr, 24, 1);
  NestSimResult Par = Sim.run(nullptr, 3, 8);
  EXPECT_GT(Seq.Throughput, Par.Throughput * 1.15);
}

TEST(NestServerSim, ResponseTimeCrossover) {
  // Fig. 2(c): inner-parallel wins at light load, sequential-inner wins
  // at heavy load.
  NestAppBundle App = makeX264App();
  NestServerSim Light(App.Model, quickOptions(0.3));
  NestSimResult LightSeq = Light.run(nullptr, 24, 1);
  NestSimResult LightPar = Light.run(nullptr, 3, 8);
  EXPECT_LT(LightPar.Stats.meanResponseTime(),
            LightSeq.Stats.meanResponseTime());

  NestSimOptions Heavy = quickOptions(0.95);
  Heavy.NumTransactions = 600;
  NestServerSim HeavySim(App.Model, Heavy);
  NestSimResult HeavySeq = HeavySim.run(nullptr, 24, 1);
  NestSimResult HeavyPar = HeavySim.run(nullptr, 3, 8);
  EXPECT_LT(HeavySeq.Stats.meanResponseTime(),
            HeavyPar.Stats.meanResponseTime());
}

TEST(NestServerSim, ArrivalRateMatchesLoadFactorDefinition) {
  NestAppBundle App = makeX264App();
  NestServerSim Sim(App.Model, quickOptions(0.5));
  // Max throughput = C / T1 (paper's N/T definition); arrival rate is
  // LF times that.
  EXPECT_NEAR(Sim.maxThroughput(), 24.0 / App.Model.SeqServiceSeconds,
              1e-12);
  EXPECT_NEAR(Sim.arrivalRate(), 0.5 * Sim.maxThroughput(), 1e-12);
}

TEST(NestServerSim, WqtHAdaptsBetweenModes) {
  NestAppBundle App = makeX264App();
  NestSimOptions Opts = quickOptions(0.5);
  Opts.NumTransactions = 500;
  NestServerSim Sim(App.Model, Opts);
  WqtHMechanism Mech(App.WqtH);
  NestSimResult R = Sim.run(&Mech, 24, 1);
  EXPECT_EQ(R.Stats.count(), 500u);
  EXPECT_GE(R.Reconfigurations, 1u);
}

TEST(NestServerSim, WqLinearBeatsStaticsAtModerateLoad) {
  // The headline claim of Fig. 11: the adaptive mechanism's response
  // time dominates both static configurations at mid loads.
  NestAppBundle App = makeX264App();
  NestSimOptions Opts = quickOptions(0.7);
  Opts.NumTransactions = 800;
  NestServerSim Sim(App.Model, Opts);

  NestSimResult StaticSeq = Sim.run(nullptr, 24, 1);
  NestSimResult StaticPar = Sim.run(nullptr, 3, 8);
  WqLinearMechanism Wq(App.WqLinear);
  NestSimResult Adaptive = Sim.run(&Wq, 24, 1);

  const double Best = std::min(StaticSeq.Stats.meanResponseTime(),
                               StaticPar.Stats.meanResponseTime());
  // Allow a small tolerance: at 0.7 the adaptive config should at least
  // match the better static and typically beat it.
  EXPECT_LT(Adaptive.Stats.meanResponseTime(), Best * 1.05);
}

TEST(NestServerSim, ReconfigurationTraceRecorded) {
  NestAppBundle App = makeX264App();
  NestServerSim Sim(App.Model, quickOptions(0.4));
  WqLinearMechanism Wq(App.WqLinear);
  NestSimResult R = Sim.run(&Wq, 24, 1);
  EXPECT_FALSE(R.InnerExtentTrace.empty());
}

TEST(NestServerSim, OversubscribedStaticIsPenalized) {
  // 24 outer x 8 inner = 192 demanded threads on 24 contexts. Under
  // heavy load the contexts are saturated and contention inflates
  // per-transaction execution time; at light load few transactions run
  // concurrently, so oversubscription costs little — both effects are
  // intentional in the model.
  NestAppBundle App = makeX264App();
  NestSimOptions Heavy = quickOptions(0.9);
  Heavy.NumTransactions = 600;
  NestServerSim Sim(App.Model, Heavy);
  NestSimResult Oversub = Sim.run(nullptr, 24, 8);
  NestSimResult Fitted = Sim.run(nullptr, 3, 8);
  EXPECT_GT(Oversub.Stats.meanExecTime(),
            Fitted.Stats.meanExecTime() * 1.5);

  NestAppBundle App2 = makeX264App();
  NestServerSim Light(App2.Model, quickOptions(0.1));
  NestSimResult OversubLight = Light.run(nullptr, 24, 8);
  NestSimResult FittedLight = Light.run(nullptr, 3, 8);
  EXPECT_LT(OversubLight.Stats.meanExecTime(),
            FittedLight.Stats.meanExecTime() * 1.5);
}

//===----------------------------------------------------------------------===//
// Golden result: the full NestSimResult of four pinned runs
//===----------------------------------------------------------------------===//

std::string num(double D) {
  std::string Out;
  JsonValue::appendNumber(Out, D);
  return Out;
}

/// Serializes every field of \p R, doubles at round-trip precision, plus
/// the trace sink's records when the run had one.
void writeResult(std::ostream &OS, const std::string &Label,
                 const NestSimResult &R,
                 const std::vector<TraceRecord> *Trace) {
  const ResponseStats &S = R.Stats;
  const VerdictCounts &V = R.Verdicts;
  OS << "== run " << Label << "\n";
  OS << "stats count=" << S.count() << " mean=" << num(S.meanResponseTime())
     << " exec=" << num(S.meanExecTime()) << " wait=" << num(S.meanWaitTime())
     << " p50=" << num(S.responsePercentile(0.50))
     << " p95=" << num(S.responsePercentile(0.95))
     << " p99=" << num(S.responsePercentile(0.99))
     << " max=" << num(S.maxResponseTime())
     << " throughput=" << num(S.throughput()) << "\n";
  OS << "verdicts unchanged=" << V.Unchanged << " pending=" << V.Pending
     << " accepted=" << V.Accepted << " invalid=" << V.Invalid
     << " over_envelope=" << V.OverEnvelope << "\n";
  OS << "reconfigurations " << R.Reconfigurations << "\n";
  OS << "total_seconds " << num(R.TotalSeconds) << "\n";
  OS << "throughput " << num(R.Throughput) << "\n";
  OS << "inner_extent " << R.InnerExtentTrace.size() << " points\n";
  for (const TimeSeries::Point &P : R.InnerExtentTrace.points())
    OS << num(P.Time) << ' ' << num(P.Value) << "\n";
  if (Trace) {
    OS << "trace " << Trace->size() << " records\n";
    writeTraceJsonl(*Trace, OS);
  }
}

/// x264 through light/heavy load swings, so every adaptive mechanism
/// changes its config several times; a 1 s decision cadence keeps the
/// golden small.
NestSimOptions goldenOptions() {
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.Trace = LoadTrace::makeStepPattern(0.3, 0.95, 60.0, 3);
  Opts.NumTransactions = 120;
  Opts.Seed = 11;
  Opts.DecisionIntervalSeconds = 1.0;
  return Opts;
}

/// The four pinned runs: WQT-H traced with task instances, WQ-Linear,
/// EDP, and the static <3, 8> latency config.
std::string goldenRuns() {
  const NestAppBundle App = makeX264App();
  std::ostringstream OS;
  {
    Tracer Trace(1 << 16);
    NestSimOptions Opts = goldenOptions();
    Opts.TraceSink = &Trace;
    Opts.TraceTaskInstances = true;
    WqtHMechanism Mech(App.WqtH);
    const NestSimResult R = NestServerSim(App.Model, Opts).run(&Mech, 24, 1);
    const std::vector<TraceRecord> Records = Trace.drain();
    writeResult(OS, "WQT-H", R, &Records);
  }
  NestServerSim Sim(App.Model, goldenOptions());
  WqLinearMechanism WqLinear(App.WqLinear);
  writeResult(OS, "WQ-Linear", Sim.run(&WqLinear, 24, 1), nullptr);
  EdpMechanism Edp({App.Model.Curve, 8, 1.15, 0});
  writeResult(OS, "EDP", Sim.run(&Edp, 24, 1), nullptr);
  writeResult(OS, "static-3x8", Sim.run(nullptr, 3, 8), nullptr);
  return OS.str();
}

/// Byte-for-byte pin of the simulator's output. Set DOPE_REGEN_GOLDEN=1
/// (the trace-regen target does) to rewrite the golden instead.
TEST(NestServerSim, ResultsMatchGolden) {
  const std::string Path =
      std::string(DOPE_GOLDEN_DIR) + "/nest-sim.results.txt";
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
      << "NestServerSim output diverged from the golden (intentional "
         "change? regenerate with the trace-regen target and review the "
         "diff)";
}

} // namespace
