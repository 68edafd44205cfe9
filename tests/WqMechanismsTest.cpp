//===- tests/WqMechanismsTest.cpp - WQT-H and WQ-Linear tests ---------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"

#include "mechanisms/ServerNest.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

MechanismContext makeCtx(unsigned Threads = 24) {
  MechanismContext Ctx;
  Ctx.MaxThreads = Threads;
  return Ctx;
}

/// A server nest whose inner region is read(SEQ) -> work(PAR) ->
/// write(SEQ), under a sequential driver.
PipelineGraph makeWrappedPipeline() {
  return makePipelineGraph({{"read", false}, {"work", true}, {"write", false}});
}

/// The snapshot fields the WQ mechanisms read, for any server nest.
RegionSnapshot wrappedSnapshot(double Occupancy) {
  RegionSnapshot Snap;
  Snap.Tasks.resize(1);
  Snap.Tasks.front().LastLoad = Occupancy;
  return Snap;
}

RegionConfig decide(Mechanism &M, const ServerNestGraph &G,
                    double Occupancy, const RegionConfig &Current) {
  RegionSnapshot Snap = makeServerSnapshot(G, Occupancy);
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, Current, makeCtx());
  return Next ? *Next : Current;
}

TEST(WqtH, StartsInSeqState) {
  ServerNestGraph G = makeServerNestGraph();
  WqtHMechanism M({/*QueueThreshold=*/4.0, 3, 3, 8, 0});
  EXPECT_FALSE(M.inParState());
  RegionConfig C = decide(M, G, 10.0, defaultConfig(*G.Root));
  EXPECT_EQ(serverInnerExtent(C), 1u);
  EXPECT_EQ(serverOuterExtent(C), 24u);
}

TEST(WqtH, TransitionsToParAfterNoffQuietDecisions) {
  ServerNestGraph G = makeServerNestGraph();
  WqtHMechanism M({4.0, /*NOff=*/3, /*NOn=*/3, 8, 0});
  RegionConfig C = defaultConfig(*G.Root);
  // Three below-threshold observations are not enough (> Noff required).
  for (int I = 0; I != 3; ++I)
    C = decide(M, G, 1.0, C);
  EXPECT_FALSE(M.inParState());
  C = decide(M, G, 1.0, C);
  EXPECT_TRUE(M.inParState());
  EXPECT_EQ(serverInnerExtent(C), 8u);
  EXPECT_EQ(serverOuterExtent(C), 3u); // 24 / 8
}

TEST(WqtH, HysteresisRidesOutBlips) {
  ServerNestGraph G = makeServerNestGraph();
  WqtHMechanism M({4.0, 3, 3, 8, 0});
  RegionConfig C = defaultConfig(*G.Root);
  for (int I = 0; I != 4; ++I)
    C = decide(M, G, 1.0, C);
  ASSERT_TRUE(M.inParState());
  // Two heavy observations (not > Non) then light again: stays PAR.
  C = decide(M, G, 9.0, C);
  C = decide(M, G, 9.0, C);
  EXPECT_TRUE(M.inParState());
  C = decide(M, G, 1.0, C);
  EXPECT_TRUE(M.inParState());
  // Sustained heavy load flips to SEQ.
  for (int I = 0; I != 4; ++I)
    C = decide(M, G, 9.0, C);
  EXPECT_FALSE(M.inParState());
  EXPECT_EQ(serverInnerExtent(C), 1u);
}

TEST(WqtH, ResetReturnsToSeq) {
  ServerNestGraph G = makeServerNestGraph();
  WqtHMechanism M({4.0, 1, 1, 8, 0});
  RegionConfig C = defaultConfig(*G.Root);
  C = decide(M, G, 0.0, C);
  C = decide(M, G, 0.0, C);
  ASSERT_TRUE(M.inParState());
  M.reset();
  EXPECT_FALSE(M.inParState());
}

TEST(WqtH, IgnoresNonServerShapes) {
  PipelineGraph G = makePipelineGraph({{"a", true}, {"b", true}});
  const ParDescriptor *Stages = G.Driver->descriptor()->alternative(0);
  WqtHMechanism M({4.0, 3, 3, 8, 0});
  RegionConfig Config;
  Config.Tasks.resize(2);
  RegionSnapshot Snap;
  Snap.Tasks.resize(2);
  EXPECT_FALSE(M.reconfigure(*Stages, Snap, Config, makeCtx()).has_value());
}

TEST(WqtH, ReportsNoChangeAsNullopt) {
  ServerNestGraph G = makeServerNestGraph();
  WqtHMechanism M({4.0, /*NOff=*/1, /*NOn=*/1, 8, 0});
  const RegionConfig Seq = makeServerConfig(*G.Root, 24, 1);
  const RegionSnapshot Quiet = makeServerSnapshot(G, 0.0);
  // One quiet tick is not enough (> Noff): SEQ keeps running.
  EXPECT_FALSE(M.reconfigure(*G.Root, Quiet, Seq, makeCtx()).has_value());
  // The second switches to PAR, the config makeServerConfig builds.
  const std::optional<RegionConfig> Par =
      M.reconfigure(*G.Root, Quiet, Seq, makeCtx());
  ASSERT_TRUE(Par.has_value());
  EXPECT_TRUE(*Par == makeServerConfig(*G.Root, 3, 8));
  // Once PAR runs, a quiet tick changes nothing...
  EXPECT_FALSE(M.reconfigure(*G.Root, Quiet, *Par, makeCtx()).has_value());
  // ...and judged against SEQ again, it proposes the same PAR config.
  const std::optional<RegionConfig> Again =
      M.reconfigure(*G.Root, Quiet, Seq, makeCtx());
  ASSERT_TRUE(Again.has_value());
  EXPECT_TRUE(*Again == *Par);
}

TEST(WqtH, ResetForgetsTheConfigBuiltForAnotherGraph) {
  WqtHMechanism M({4.0, /*NOff=*/1, /*NOn=*/1, 8, 0});
  {
    ServerNestGraph G = makeServerNestGraph();
    ASSERT_EQ(serverOuterExtent(decide(M, G, 0.0, defaultConfig(*G.Root))),
              24u);
  }
  // The same extents, SEQ, on a nest whose inner region has three tasks.
  M.reset();
  PipelineGraph P = makeWrappedPipeline();
  const RegionSnapshot Quiet = wrappedSnapshot(0.0);
  const RegionConfig Start = makeServerConfig(*P.Root, 24, 1);
  EXPECT_FALSE(M.reconfigure(*P.Root, Quiet, Start, makeCtx()).has_value());
  const std::optional<RegionConfig> Par =
      M.reconfigure(*P.Root, Quiet, Start, makeCtx());
  ASSERT_TRUE(Par.has_value());
  std::string Error;
  EXPECT_TRUE(validateConfig(*P.Root, *Par, &Error)) << Error;
  EXPECT_EQ(serverInnerExtent(*Par), 8u);
}

TEST(WqLinear, SlopeMatchesEquationThree) {
  WqLinearMechanism M({/*MMin=*/1, /*MMax=*/8, /*QMax=*/14.0, 0, 0});
  EXPECT_DOUBLE_EQ(M.slope(), 0.5); // (8 - 1) / 14
}

TEST(WqLinear, ExtentFollowsEquationTwo) {
  WqLinearMechanism M({1, 8, 14.0, 0, 0});
  EXPECT_EQ(M.extentForOccupancy(0.0), 8u);
  EXPECT_EQ(M.extentForOccupancy(14.0), 1u);
  EXPECT_EQ(M.extentForOccupancy(7.0), 5u);   // 8 - 3.5 = 4.5 -> 5
  EXPECT_EQ(M.extentForOccupancy(100.0), 1u); // clamped at Mmin
}

TEST(WqLinear, ProducesMatchingServerConfigs) {
  ServerNestGraph G = makeServerNestGraph();
  WqLinearMechanism M({1, 8, 14.0, 0, 0});
  RegionConfig C = defaultConfig(*G.Root);

  C = decide(M, G, 0.0, C); // empty queue: full latency mode
  EXPECT_EQ(serverInnerExtent(C), 8u);
  EXPECT_EQ(serverOuterExtent(C), 3u);

  C = decide(M, G, 20.0, C); // saturated queue: throughput mode
  EXPECT_EQ(serverInnerExtent(C), 1u);
  EXPECT_EQ(serverOuterExtent(C), 24u);

  C = decide(M, G, 6.0, C); // 8 - 0.5*6 = 5
  EXPECT_EQ(serverInnerExtent(C), 5u);
  EXPECT_EQ(serverOuterExtent(C), 4u); // floor(24 / 5)
}

TEST(WqLinear, HysteresisBandSuppressesSmallSteps) {
  ServerNestGraph G = makeServerNestGraph();
  WqLinearParams P{1, 8, 14.0, /*HysteresisBand=*/1, 0};
  WqLinearMechanism M(P);
  RegionConfig C = defaultConfig(*G.Root);
  C = decide(M, G, 0.0, C); // extent 8
  ASSERT_EQ(serverInnerExtent(C), 8u);
  // Occupancy 2 -> raw extent 7: within the band, stays 8.
  C = decide(M, G, 2.0, C);
  EXPECT_EQ(serverInnerExtent(C), 8u);
  // Occupancy 8 -> raw extent 4: outside the band, moves.
  C = decide(M, G, 8.0, C);
  EXPECT_EQ(serverInnerExtent(C), 4u);
}

TEST(WqLinear, ResetForgetsLastExtent) {
  ServerNestGraph G = makeServerNestGraph();
  WqLinearMechanism M({1, 8, 14.0, 2, 0});
  RegionConfig C = defaultConfig(*G.Root);
  C = decide(M, G, 0.0, C);
  M.reset();
  C = decide(M, G, 7.0, C);
  EXPECT_EQ(serverInnerExtent(C), 5u);
}

TEST(WqLinear, ReportsNoChangeAsNullopt) {
  ServerNestGraph G = makeServerNestGraph();
  WqLinearMechanism M({1, 8, 14.0, 0, 0});
  const RegionConfig Seq = makeServerConfig(*G.Root, 24, 1);
  // Occupancy 6: 8 - 0.5*6 = 5, a change.
  const std::optional<RegionConfig> Five =
      M.reconfigure(*G.Root, makeServerSnapshot(G, 6.0), Seq, makeCtx());
  ASSERT_TRUE(Five.has_value());
  EXPECT_TRUE(*Five == makeServerConfig(*G.Root, 4, 5));
  // The same occupancy against the config now running: no change.
  EXPECT_FALSE(M.reconfigure(*G.Root, makeServerSnapshot(G, 6.0), *Five,
                             makeCtx())
                   .has_value());
  // A full queue goes back to the running SEQ config: no change either.
  EXPECT_FALSE(M.reconfigure(*G.Root, makeServerSnapshot(G, 20.0), Seq,
                             makeCtx())
                   .has_value());
}

TEST(WqLinear, ResetForgetsTheConfigBuiltForAnotherGraph) {
  WqLinearMechanism M({1, 8, 14.0, 0, 0});
  {
    ServerNestGraph G = makeServerNestGraph();
    ASSERT_EQ(serverInnerExtent(decide(M, G, 0.0, defaultConfig(*G.Root))),
              8u);
  }
  M.reset();
  PipelineGraph P = makeWrappedPipeline();
  const std::optional<RegionConfig> Next = M.reconfigure(
      *P.Root, wrappedSnapshot(0.0), defaultConfig(*P.Root), makeCtx());
  ASSERT_TRUE(Next.has_value());
  std::string Error;
  EXPECT_TRUE(validateConfig(*P.Root, *Next, &Error)) << Error;
  EXPECT_EQ(serverInnerExtent(*Next), 8u);
}

TEST(WqLinear, RespectsMminFloor) {
  ServerNestGraph G = makeServerNestGraph();
  WqLinearMechanism M({/*MMin=*/4, /*MMax=*/8, /*QMax=*/8.0, 0, 0});
  RegionConfig C = defaultConfig(*G.Root);
  C = decide(M, G, 100.0, C);
  EXPECT_EQ(serverInnerExtent(C), 4u);
}

} // namespace
