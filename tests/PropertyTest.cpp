//===- tests/PropertyTest.cpp - Property-based invariant sweeps --------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized (TEST_P) sweeps over the invariants the system's
/// correctness rests on: allocator arithmetic, curve monotonicity,
/// configuration validity, mechanism outputs staying within budget, and
/// conservation laws of the simulators.
///
//===----------------------------------------------------------------------===//

#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "core/Placement.h"
#include "core/Replay.h"
#include "mechanisms/Dpm.h"
#include "mechanisms/Factory.h"
#include "mechanisms/Fdp.h"
#include "mechanisms/Seda.h"
#include "mechanisms/ServerNest.h"
#include "mechanisms/Tpc.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/WqLinear.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "support/MathUtils.h"
#include "support/Random.h"
#include "support/SpeedupCurve.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

//===----------------------------------------------------------------------===
// Allocator invariants over random instances
//===----------------------------------------------------------------------===

class AllocatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorProperty, ProportionalSplitConserves) {
  Rng R(loggedSeed(GetParam()));
  const size_t N = 1 + R.uniformInt(8);
  const unsigned Total =
      static_cast<unsigned>(N + R.uniformInt(64));
  std::vector<double> Weights;
  for (size_t I = 0; I != N; ++I)
    Weights.push_back(R.uniform(0.0, 10.0));

  const std::vector<unsigned> Split = proportionalSplit(Total, Weights, 1);
  const unsigned Sum = std::accumulate(Split.begin(), Split.end(), 0u);
  EXPECT_EQ(Sum, Total);
  for (unsigned S : Split)
    EXPECT_GE(S, 1u);
}

TEST_P(AllocatorProperty, WaterfillConservesAndDominatesProportional) {
  Rng R(loggedSeed(GetParam()) ^ 0xabcdULL);
  const size_t N = 2 + R.uniformInt(6);
  std::vector<double> Costs;
  for (size_t I = 0; I != N; ++I)
    Costs.push_back(R.uniform(0.1, 10.0));
  const unsigned Total = static_cast<unsigned>(N + R.uniformInt(40));

  const std::vector<unsigned> Water = waterfillSplit(Total, Costs);
  EXPECT_EQ(std::accumulate(Water.begin(), Water.end(), 0u), Total);

  auto MinCapacity = [&](const std::vector<unsigned> &Units) {
    double Min = 1e300;
    for (size_t I = 0; I != N; ++I)
      Min = std::min(Min, Units[I] / Costs[I]);
    return Min;
  };
  const std::vector<unsigned> Proportional =
      proportionalSplit(Total, Costs, 1);
  EXPECT_GE(MinCapacity(Water) + 1e-12, MinCapacity(Proportional));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AllocatorProperty,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===
// Speedup curve invariants across the parameter grid
//===----------------------------------------------------------------------===

struct CurveParams {
  double Alpha;
  double FixedCost;
  double Cap;
};

class CurveProperty : public ::testing::TestWithParam<CurveParams> {};

TEST_P(CurveProperty, Invariants) {
  const CurveParams P = GetParam();
  SpeedupCurve C(P.Alpha, P.FixedCost, P.Cap);
  EXPECT_DOUBLE_EQ(C.speedup(1), 1.0);
  double Previous = 1.0;
  for (unsigned M = 2; M <= 48; ++M) {
    const double S = C.speedup(M);
    EXPECT_GT(S, 0.0);
    EXPECT_LE(S, P.Cap + 1e-12);
    // The raw curve is increasing in m, and min with a constant keeps
    // monotonicity except across the m=1 fixed-cost cliff.
    if (M > 2) {
      EXPECT_GE(S + 1e-12, Previous);
    }
    EXPECT_LE(C.efficiency(M), 1.0 + 1e-12);
    Previous = S;
  }
  const unsigned DopMin = C.dopMin();
  if (DopMin != 0) {
    EXPECT_GT(C.speedup(DopMin), 1.0);
    if (DopMin > 2) {
      EXPECT_LE(C.speedup(DopMin - 1), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CurveProperty,
    ::testing::Values(CurveParams{0.0, 0.0, 1e30},
                      CurveParams{0.02, 0.0, 18.0},
                      CurveParams{0.033, 0.0, 6.3},
                      CurveParams{0.3, 1.4, 8.0},
                      CurveParams{0.09, 0.0, 10.0},
                      CurveParams{0.5, 3.0, 4.0},
                      CurveParams{0.0, 0.5, 2.0}));

//===----------------------------------------------------------------------===
// Server-nest configuration validity across the (outer, inner) grid
//===----------------------------------------------------------------------===

class ServerConfigProperty
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(ServerConfigProperty, AlwaysValidAndAccountable) {
  const auto [Outer, Inner] = GetParam();
  ServerNestGraph G = makeServerNestGraph();
  const RegionConfig Config = makeServerConfig(*G.Root, Outer, Inner);
  std::string Error;
  EXPECT_TRUE(validateConfig(*G.Root, Config, &Error)) << Error;
  EXPECT_EQ(serverOuterExtent(Config), Outer);
  EXPECT_EQ(serverInnerExtent(Config), std::max(1u, Inner));
  EXPECT_EQ(totalThreads(*G.Root, Config),
            Outer * std::max(1u, Inner));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServerConfigProperty,
    ::testing::Values(std::pair<unsigned, unsigned>{1, 1},
                      std::pair<unsigned, unsigned>{24, 1},
                      std::pair<unsigned, unsigned>{3, 8},
                      std::pair<unsigned, unsigned>{12, 2},
                      std::pair<unsigned, unsigned>{6, 4},
                      std::pair<unsigned, unsigned>{1, 24},
                      std::pair<unsigned, unsigned>{24, 8}));

//===----------------------------------------------------------------------===
// WQ-Linear decision function properties
//===----------------------------------------------------------------------===

class WqLinearProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(WqLinearProperty, ExtentMonotoneNonincreasingInOccupancy) {
  const unsigned MMax = GetParam();
  WqLinearMechanism M({1, MMax, 16.0, 0, 0});
  unsigned Previous = MMax + 1;
  for (double Occupancy = 0.0; Occupancy <= 40.0; Occupancy += 0.5) {
    const unsigned Extent = M.extentForOccupancy(Occupancy);
    EXPECT_GE(Extent, 1u);
    EXPECT_LE(Extent, MMax);
    EXPECT_LE(Extent, Previous);
    Previous = Extent;
  }
  EXPECT_EQ(M.extentForOccupancy(0.0), MMax);
  EXPECT_EQ(M.extentForOccupancy(1000.0), 1u);
}

INSTANTIATE_TEST_SUITE_P(MmaxGrid, WqLinearProperty,
                         ::testing::Values(2u, 4u, 6u, 8u, 12u));

//===----------------------------------------------------------------------===
// Simulator conservation laws
//===----------------------------------------------------------------------===

class NestSimProperty : public ::testing::TestWithParam<double> {};

TEST_P(NestSimProperty, EveryTransactionCompletesExactlyOnce) {
  const double Load = GetParam();
  NestAppBundle App = makeX264App();
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.LoadFactor = Load;
  Opts.NumTransactions = 300;
  Opts.Seed = 1234;
  NestServerSim Sim(App.Model, Opts);

  for (unsigned Inner : {1u, 4u, 8u}) {
    NestSimResult R =
        Sim.run(nullptr, outerExtentFor(24, Inner), Inner);
    EXPECT_EQ(R.Stats.count(), 300u) << "load " << Load << " m " << Inner;
    // Throughput can never exceed the offered load (open loop) nor the
    // platform's maximum.
    EXPECT_LE(R.Throughput, Sim.maxThroughput() * 1.05);
  }

  WqLinearMechanism Wq(App.WqLinear);
  NestSimResult R = Sim.run(&Wq, 24, 1);
  EXPECT_EQ(R.Stats.count(), 300u);
}

INSTANTIATE_TEST_SUITE_P(LoadGrid, NestSimProperty,
                         ::testing::Values(0.1, 0.4, 0.7, 0.9, 1.0));

class PipelineSimProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineSimProperty, ItemConservationAndBoundedThroughput) {
  const uint64_t Seed = loggedSeed(GetParam());
  PipelineAppModel App = makeFerretApp();
  PipelineSimOptions Opts;
  Opts.Contexts = 24;
  Opts.Seed = Seed;
  Opts.NumItems = 500;
  PipelineSim Sim(App, Opts);

  const std::vector<std::vector<unsigned>> Configs = {
      {1, 1, 1, 1, 1, 1},
      {1, 6, 6, 5, 5, 1},
      {1, 2, 14, 2, 4, 1},
      {1, 24, 24, 24, 24, 1},
  };
  for (const std::vector<unsigned> &Extents : Configs) {
    PipelineSimResult R = Sim.run(nullptr, Extents);
    EXPECT_EQ(R.ItemsCompleted, 500u);
    const double Bound = Sim.analyticThroughput(Extents);
    EXPECT_LE(R.Throughput, Bound * 1.1)
        << "seed " << Seed << " extents[1] " << Extents[1];
  }

  TbfMechanism Tbf;
  PipelineSimResult R = Sim.run(&Tbf, {});
  EXPECT_EQ(R.ItemsCompleted, 500u);
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, PipelineSimProperty,
                         ::testing::Values(1, 2, 3, 7, 1234));

//===----------------------------------------------------------------------===
// RNG bounds across ranges
//===----------------------------------------------------------------------===

class RngProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngProperty, UniformIntStrictlyBounded) {
  const uint64_t N = GetParam();
  Rng R(N * 7919 + 1);
  for (int I = 0; I != 2000; ++I)
    EXPECT_LT(R.uniformInt(N), N);
}

INSTANTIATE_TEST_SUITE_P(RangeGrid, RngProperty,
                         ::testing::Values(1, 2, 3, 10, 1000, 1ull << 40));

//===----------------------------------------------------------------------===
// Placement invariants across topologies
//===----------------------------------------------------------------------===

struct TopoParams {
  unsigned Sockets;
  unsigned Cores;
};

class PlacementProperty : public ::testing::TestWithParam<TopoParams> {};

TEST_P(PlacementProperty, AllPoliciesProduceValidAssignments) {
  const TopoParams TP = GetParam();
  Topology Topo(TP.Sockets, TP.Cores, 3.0);
  const std::vector<std::vector<unsigned>> ExtentSets = {
      {1, 1}, {1, 6, 6, 5, 5, 1}, {4, 4, 4}, {24, 24}, {2, 14, 2, 4}};
  for (const std::vector<unsigned> &Extents : ExtentSets) {
    for (const Placement &P :
         {placePartitioned(Topo, Extents), placeStriped(Topo, Extents),
          placeContiguous(Topo, Extents)}) {
      ASSERT_EQ(P.Cores.size(), Extents.size());
      unsigned Total = 0;
      for (size_t S = 0; S != Extents.size(); ++S) {
        EXPECT_EQ(P.Cores[S].size(), Extents[S]);
        Total += Extents[S];
        for (unsigned Core : P.Cores[S])
          EXPECT_LT(Core, Topo.totalCores());
      }
      EXPECT_EQ(P.totalReplicas(), Total);
      // Hand-off costs are within the metric's range.
      for (size_t S = 0; S + 1 < P.Cores.size(); ++S) {
        for (RoutingPolicy R :
             {RoutingPolicy::Uniform, RoutingPolicy::LocalityPreferring}) {
          const double Cost = stageHandoffCost(Topo, P, S, R);
          EXPECT_GE(Cost, 0.0);
          EXPECT_LE(Cost, Topo.crossSocketFactor() + 1e-12);
        }
      }
      // Locality routing never costs more than uniform routing on the
      // partitioned placement.
    }
    const Placement Part = placePartitioned(Topo, Extents);
    for (size_t S = 0; S + 1 < Part.Cores.size(); ++S)
      EXPECT_LE(stageHandoffCost(Topo, Part, S,
                                 RoutingPolicy::LocalityPreferring),
                stageHandoffCost(Topo, Part, S, RoutingPolicy::Uniform) +
                    1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TopoGrid, PlacementProperty,
                         ::testing::Values(TopoParams{1, 4},
                                           TopoParams{2, 2},
                                           TopoParams{4, 6},
                                           TopoParams{8, 3}));

//===----------------------------------------------------------------------===
// Every throughput mechanism respects the thread budget on every decision
//===----------------------------------------------------------------------===

class MechanismBudgetProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(MechanismBudgetProperty, ConfigsStayWithinBudget) {
  const unsigned Budget = GetParam();
  PipelineAppModel App = makeFerretApp();
  PipelineSimOptions Opts;
  Opts.Contexts = Budget;
  Opts.Seed = 11;
  Opts.NumItems = 400;
  PipelineSim Sim(App, Opts);

  TbfMechanism Tbf;
  FdpMechanism Fdp;
  DpmMechanism Dpm;
  std::vector<Mechanism *> Mechanisms = {&Tbf, &Fdp, &Dpm};
  for (Mechanism *M : Mechanisms) {
    PipelineSimResult R = Sim.run(M, {});
    EXPECT_EQ(R.ItemsCompleted, 400u) << M->name();
    unsigned Total = 0;
    for (unsigned E : R.FinalExtents)
      Total += E;
    EXPECT_LE(Total, Budget) << M->name() << " budget " << Budget;
  }
}

INSTANTIATE_TEST_SUITE_P(BudgetGrid, MechanismBudgetProperty,
                         ::testing::Values(6u, 8u, 12u, 24u, 48u));

//===----------------------------------------------------------------------===
// Replay invariants: budget discipline on randomized feature streams
//===----------------------------------------------------------------------===
//
// The replay harness deliberately does NOT clamp proposals to the thread
// budget (core/Replay.h): budget discipline is a property of the
// mechanisms themselves, and these sweeps are where it is checked, on
// streams no golden file ever pinned down. Streams keep "LiveContexts"
// constant so the budget in force is unambiguous per run.

/// A randomized driver-wrapped pipeline stream. \p Live (the
/// "LiveContexts" platform feature) is held constant across steps.
FeatureStream randomPipelineStream(Rng &R, unsigned &LiveOut) {
  FeatureStream S;
  S.Name = "random-pipeline";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  const size_t NumStages = 2 + R.uniformInt(3);
  for (size_t I = 0; I != NumStages; ++I)
    S.Stages.push_back({"s" + std::to_string(I), true});
  // Budget always admits driver + one thread per stage.
  S.MaxThreads = static_cast<unsigned>(NumStages) + 2 +
                 static_cast<unsigned>(R.uniformInt(12));
  const unsigned Live = static_cast<unsigned>(NumStages) + 2 +
                        static_cast<unsigned>(R.uniformInt(
                            S.MaxThreads - NumStages - 1));
  LiveOut = std::min(Live, S.MaxThreads);

  const size_t NumSteps = 8 + R.uniformInt(9);
  double Time = 0.0;
  for (size_t I = 0; I != NumSteps; ++I) {
    ReplayStep Step;
    Time += 0.25 + R.uniform(0.0, 0.5);
    Step.Time = Time;
    Step.Features.push_back({"LiveContexts", static_cast<double>(LiveOut)});
    for (size_t St = 0; St != NumStages; ++St) {
      Step.ExecTime.push_back(R.uniform(0.02, 1.0));
      Step.Load.push_back(R.uniform(0.0, 12.0));
    }
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// A randomized server-nest stream. LiveContexts stays at or above the
/// work-queue mechanisms' canonical MMax (8) so their inner extent is
/// always representable within the budget.
FeatureStream randomNestStream(Rng &R, unsigned &LiveOut) {
  FeatureStream S;
  S.Name = "random-nest";
  S.Kind = FeatureStream::GraphKind::ServerNest;
  S.Stages.push_back({"server", true});
  S.MaxThreads = 8 + static_cast<unsigned>(R.uniformInt(17));
  LiveOut = 8 + static_cast<unsigned>(R.uniformInt(S.MaxThreads - 7));

  const size_t NumSteps = 10 + R.uniformInt(11);
  double Time = 0.0;
  for (size_t I = 0; I != NumSteps; ++I) {
    ReplayStep Step;
    Time += 0.25 + R.uniform(0.0, 0.5);
    Step.Time = Time;
    Step.Features.push_back({"LiveContexts", static_cast<double>(LiveOut)});
    Step.ExecTime.push_back(0.2 + R.uniform(0.0, 1.0));
    Step.Load.push_back(R.uniform(0.0, 20.0));
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// Asserts the budget invariants on every decision of one replay.
void expectBudgetDiscipline(const ReplayResult &Result, unsigned Live,
                            const std::string &Who) {
  EXPECT_EQ(Result.Verdicts.Invalid, 0u) << Who;
  EXPECT_EQ(Result.Verdicts.OverEnvelope, 0u) << Who;
  for (const ReplayDecision &D : Result.Decisions) {
    // The budget the harness recorded is the one the stream pinned.
    EXPECT_EQ(D.Budget, Live) << Who << " decision at step " << D.Step;
    // No single task is ever wider than the budget...
    for (unsigned E : D.Extents)
      EXPECT_LE(E, D.Budget)
          << Who << " decision at step " << D.Step << ": " << D.Config;
    // ...and the extents sum within it.
    EXPECT_LE(D.TotalThreads, D.Budget)
        << Who << " decision at step " << D.Step << ": " << D.Config;
  }
}

class ReplayBudgetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayBudgetProperty, PipelineMechanismsStayWithinBudget) {
  Rng R(loggedSeed(GetParam()) ^ 0x9e3779b97f4a7c15ULL);
  unsigned Live = 0;
  const FeatureStream Stream = randomPipelineStream(R, Live);

  for (const char *Name : {"TBF", "TB", "FDP"}) {
    std::unique_ptr<Mechanism> Mech = createMechanismByName(Name);
    ASSERT_NE(Mech, nullptr) << Name;
    ReplayMechanismHarness Harness(Stream);
    expectBudgetDiscipline(Harness.run(*Mech), Live, Name);
  }

  // The faithful SEDA controller is uncoordinated by design; the clamped
  // variant must obey the global budget like everything else.
  SedaMechanism Seda({/*HighWatermark=*/6.0, /*LowWatermark=*/1.0,
                      /*PerStageCap=*/0, /*ClampTotal=*/true});
  ReplayMechanismHarness Harness(Stream);
  expectBudgetDiscipline(Harness.run(Seda), Live, "SEDA-clamped");
}

TEST_P(ReplayBudgetProperty, NestMechanismsStayWithinBudget) {
  Rng R(loggedSeed(GetParam()) ^ 0xc2b2ae3d27d4eb4fULL);
  unsigned Live = 0;
  const FeatureStream Stream = randomNestStream(R, Live);

  for (const char *Name : {"WQT-H", "WQ-Linear"}) {
    std::unique_ptr<Mechanism> Mech = createMechanismByName(Name);
    ASSERT_NE(Mech, nullptr) << Name;
    ReplayMechanismHarness Harness(Stream);
    expectBudgetDiscipline(Harness.run(*Mech), Live, Name);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, ReplayBudgetProperty,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===
// TPC power-cap invariants under a closed-loop replay
//===----------------------------------------------------------------------===

class TpcPowerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TpcPowerProperty, NeverGrowsUnderOvershootAndSettlesWithinCap) {
  Rng R(loggedSeed(GetParam()) ^ 0xd6e8feb86659fd93ULL);

  // Linear platform power model: idle floor plus a per-thread increment.
  // The cap sits halfway between two achievable totals, strictly below
  // what the thread budget alone would allow, so power is the binding
  // constraint and an overshoot genuinely occurs mid-ramp.
  const double IdleWatts = R.uniform(5.0, 15.0);
  const double WattsPerThread = R.uniform(4.0, 8.0);
  const unsigned FeasibleTotal = 4 + static_cast<unsigned>(R.uniformInt(5));
  const double CapWatts =
      IdleWatts + WattsPerThread * (FeasibleTotal + 0.5);

  FeatureStream S;
  S.Name = "tpc-closed-loop";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  const size_t NumStages = 2 + R.uniformInt(2);
  for (size_t I = 0; I != NumStages; ++I)
    S.Stages.push_back({"s" + std::to_string(I), true});
  S.MaxThreads = FeasibleTotal + 4; // threads alone would over-draw power
  S.PowerBudgetWatts = CapWatts;

  // Constant per-stage service times: throughput then depends only on
  // the extents TPC itself chooses, so Stable does not re-open the
  // search from workload drift and the run converges.
  std::vector<double> Exec;
  for (size_t I = 0; I != NumStages; ++I)
    Exec.push_back(0.1 + R.uniform(0.0, 0.4));
  for (size_t I = 0; I != 30; ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    Step.ExecTime = Exec;
    Step.Load.assign(NumStages, 2.0);
    S.Steps.push_back(std::move(Step));
  }

  TpcMechanism Tpc;
  ReplayMechanismHarness Harness(std::move(S));
  const ParDescriptor &Root = Harness.root();

  // Close the loop: each step observes the power the *currently applied*
  // configuration draws under the linear model.
  Harness.setStepHook([&](size_t, const RegionConfig &Current,
                          std::map<std::string, double> &Features) {
    Features["SystemPower"] =
        IdleWatts + WattsPerThread * totalThreads(Root, Current);
  });

  const ReplayResult Result = Harness.run(Tpc);
  EXPECT_EQ(Result.Verdicts.Invalid, 0u);
  EXPECT_EQ(Result.Verdicts.OverEnvelope, 0u);
  EXPECT_FALSE(Result.Decisions.empty());

  auto ModelWatts = [&](unsigned Threads) {
    return IdleWatts + WattsPerThread * Threads;
  };
  // The configuration in force before each decision; replay starts from
  // the all-ones default (driver + one thread per stage).
  unsigned CurrentTotal = static_cast<unsigned>(NumStages) + 1;
  for (const ReplayDecision &D : Result.Decisions) {
    EXPECT_LE(D.TotalThreads, D.Budget)
        << "step " << D.Step << ": " << D.Config;
    // Ramp grows one thread at a time and only while under the cap, so
    // no accepted configuration overshoots by more than one increment.
    EXPECT_LE(ModelWatts(D.TotalThreads), CapWatts + WattsPerThread + 1e-9)
        << "step " << D.Step << ": " << D.Config;
    // A decision taken while the observed power exceeds the cap must
    // shed threads, never grow.
    if (ModelWatts(CurrentTotal) > CapWatts) {
      EXPECT_LT(D.TotalThreads, CurrentTotal)
          << "step " << D.Step << " grew under overshoot: " << D.Config;
    }
    CurrentTotal = D.TotalThreads;
  }

  // The controller settles, and what it settles on respects the cap.
  EXPECT_LE(ModelWatts(totalThreads(Root, Result.FinalConfig)),
            CapWatts + 1e-9);
  EXPECT_EQ(Tpc.phase(), TpcMechanism::Phase::Stable);
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, TpcPowerProperty,
                         ::testing::Range<uint64_t>(0, 10));

} // namespace
