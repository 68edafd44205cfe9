//===- tests/ThroughputMechanismsTest.cpp - TBF/FDP/SEDA tests --------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/Fdp.h"
#include "mechanisms/Seda.h"
#include "mechanisms/Tbf.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

PipelineGraph ferretLikeGraph(bool WithFused = true) {
  std::vector<StageSpec> Fused;
  if (WithFused)
    Fused = {{"load", false}, {"query", true}, {"out", false}};
  return makePipelineGraph({{"load", false},
                            {"segment", true},
                            {"extract", true},
                            {"rank", true},
                            {"out", false}},
                           Fused);
}

RegionConfig configWithExtents(std::vector<unsigned> Extents, int Alt = 0) {
  TaskConfig Driver;
  Driver.Extent = 1;
  Driver.AltIndex = Alt;
  for (unsigned E : Extents) {
    TaskConfig TC;
    TC.Extent = E;
    Driver.Inner.push_back(TC);
  }
  RegionConfig Config;
  Config.Tasks.push_back(Driver);
  return Config;
}

std::vector<unsigned> stageExtents(const RegionConfig &Config) {
  std::vector<unsigned> Out;
  for (const TaskConfig &TC : Config.Tasks.front().Inner)
    Out.push_back(TC.Extent);
  return Out;
}

MechanismContext makeCtx(unsigned Threads = 24) {
  MechanismContext Ctx;
  Ctx.MaxThreads = Threads;
  return Ctx;
}

// Balanced-ish stage metrics: load 0.1s | segment 0.8s | extract 8s |
// rank 2s | out 0.1s.
std::vector<StageMetricsSpec> ferretMetrics() {
  return {{0.1, 1, 10}, {0.8, 4, 10}, {8.0, 40, 10}, {2.0, 8, 10},
          {0.1, 0, 10}};
}

TEST(Tbf, WaitsForMeasurements) {
  PipelineGraph G = ferretLikeGraph();
  TbfMechanism M({0.5, /*EnableFusion=*/false});
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(
      G, C, {{0.1, 0, 0}, {0.0, 0, 0}, {0.0, 0, 0}, {0.0, 0, 0},
             {0.0, 0, 0}});
  EXPECT_FALSE(M.reconfigure(*G.Root, Snap, C, makeCtx()).has_value());
}

TEST(Tbf, BalancesInverselyToThroughput) {
  PipelineGraph G = ferretLikeGraph(/*WithFused=*/false);
  TbfMechanism M({0.5, false});
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  const std::vector<unsigned> E = stageExtents(*Next);
  // Sequential stages pinned; the 8 s stage dominates the assignment.
  EXPECT_EQ(E[0], 1u);
  EXPECT_EQ(E[4], 1u);
  EXPECT_GT(E[2], E[1]);
  EXPECT_GT(E[2], E[3]);
  unsigned Total = 0;
  for (unsigned X : E)
    Total += X;
  EXPECT_LE(Total, 24u);
  // Max-min balance: no parallel stage's capacity can be far below the
  // bottleneck of the ideal continuous split (22 / 11.8 ~ 1.86).
  EXPECT_GE(static_cast<double>(E[2]) / 8.0, 1.5);
}

TEST(Tbf, FusesWhenImbalanceExceedsThreshold) {
  PipelineGraph G = ferretLikeGraph();
  TbfMechanism M({0.5, /*EnableFusion=*/true, /*FusionWarmup=*/0});
  RegionConfig C = configWithExtents({1, 6, 6, 6, 1});
  // Sequential stages have tiny exec times, so the capacity spread
  // between them and the balanced parallel stages exceeds 0.5.
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(Next->Tasks.front().AltIndex, 1);
  EXPECT_TRUE(M.fused());
  // The fused parallel stage receives the non-sequential budget.
  EXPECT_EQ(Next->Tasks.front().Inner[1].Extent, 22u);
}

TEST(Tbf, FusionWaitsForWarmup) {
  PipelineGraph G = ferretLikeGraph();
  TbfMechanism M({0.5, /*EnableFusion=*/true, /*FusionWarmup=*/2});
  RegionConfig C = configWithExtents({1, 6, 6, 6, 1});
  // Decisions 1 and 2 rebalance without fusing; decision 3 may fuse.
  for (int I = 0; I != 2; ++I) {
    RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
    std::optional<RegionConfig> Next =
        M.reconfigure(*G.Root, Snap, C, makeCtx());
    ASSERT_TRUE(Next.has_value());
    EXPECT_EQ(Next->Tasks.front().AltIndex, 0);
    C = *Next;
  }
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(Next->Tasks.front().AltIndex, 1);
}

TEST(Tbf, NoFusionWithoutAlternative) {
  PipelineGraph G = ferretLikeGraph(/*WithFused=*/false);
  TbfMechanism M({0.5, true, 0});
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(Next->Tasks.front().AltIndex, 0);
  EXPECT_FALSE(M.fused());
}

TEST(Tbf, TbVariantNeverFuses) {
  PipelineGraph G = ferretLikeGraph();
  TbfMechanism M({0.5, /*EnableFusion=*/false});
  EXPECT_EQ(M.name(), "TB");
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(Next->Tasks.front().AltIndex, 0);
}

TEST(Tbf, ImbalanceMetric) {
  EXPECT_DOUBLE_EQ(TbfMechanism::imbalance({2.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(TbfMechanism::imbalance({1.0, 4.0}), 0.75);
  EXPECT_DOUBLE_EQ(TbfMechanism::imbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(TbfMechanism::imbalance({0.0, 3.0}), 0.0);
}

TEST(Fdp, ClimbsTowardBottleneck) {
  PipelineGraph G = ferretLikeGraph(false);
  FdpMechanism M;
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  const std::vector<unsigned> E = stageExtents(*Next);
  // First move: grow the slowest stage (extract, 8 s) using free budget.
  EXPECT_EQ(E[2], 2u);
}

TEST(Fdp, RevertsFailedMoves) {
  PipelineGraph G = ferretLikeGraph(false);
  FdpMechanism M;
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(G, C, ferretMetrics());
  // Apply the proposed move.
  RegionConfig Moved = *M.reconfigure(*G.Root, Snap, C, makeCtx());
  // Report *unchanged* throughput for the moved configuration: the
  // climber must revert (the extents it proposes next must not keep the
  // failed +1).
  RegionSnapshot SameTput = makePipelineSnapshot(
      G, Moved,
      {{0.1, 1, 20}, {0.8, 4, 20}, {16.0, 40, 20}, {2.0, 8, 20},
       {0.1, 0, 20}}); // extract now twice as slow: capacity unchanged
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, SameTput, Moved, makeCtx());
  ASSERT_TRUE(Next.has_value());
  const std::vector<unsigned> E = stageExtents(*Next);
  // The reverted base had extract at 1; the next proposal is a different
  // move, so extract is not grown twice.
  EXPECT_LE(E[2], 2u);
}

TEST(Fdp, ConvergesWhenNeighbourhoodExhausted) {
  PipelineGraph G = ferretLikeGraph(false);
  FdpMechanism M({/*AcceptEpsilon=*/0.02, /*ReexploreDrift=*/0.5});
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  // Keep reporting identical throughput: every move fails; eventually
  // the climber converges and stops proposing changes.
  bool Converged = false;
  for (int I = 0; I != 300 && !Converged; ++I) {
    RegionSnapshot Snap = makePipelineSnapshot(
        G, C,
        {{0.1, 1, 50}, {1.0, 4, 50}, {1.0, 40, 50}, {1.0, 8, 50},
         {0.1, 0, 50}});
    std::optional<RegionConfig> Next =
        M.reconfigure(*G.Root, Snap, C, makeCtx(6));
    if (Next)
      C = *Next;
    Converged = M.converged();
  }
  EXPECT_TRUE(Converged);
}

TEST(Seda, GrowsLoadedStagesLocally) {
  PipelineGraph G = ferretLikeGraph(false);
  SedaMechanism M({/*High=*/8.0, /*Low=*/1.0, /*Cap=*/0, false});
  RegionConfig C = configWithExtents({1, 1, 1, 1, 1});
  RegionSnapshot Snap = makePipelineSnapshot(
      G, C,
      {{0.1, 0, 10}, {0.8, 20, 10}, {8.0, 50, 10}, {2.0, 0.5, 10},
       {0.1, 0, 10}});
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, C, makeCtx());
  ASSERT_TRUE(Next.has_value());
  const std::vector<unsigned> E = stageExtents(*Next);
  EXPECT_EQ(E[1], 2u); // backed up
  EXPECT_EQ(E[2], 2u); // backed up
  EXPECT_EQ(E[3], 1u); // idle but already at minimum
  EXPECT_EQ(E[0], 1u); // sequential never grows
}

TEST(Seda, ShrinksIdleStages) {
  PipelineGraph G = ferretLikeGraph(false);
  SedaMechanism M({8.0, 1.0, 0, false});
  RegionConfig C = configWithExtents({1, 4, 4, 4, 1});
  RegionSnapshot Snap = makePipelineSnapshot(
      G, C,
      {{0.1, 0, 10}, {0.8, 0.2, 10}, {8.0, 50, 10}, {2.0, 0.0, 10},
       {0.1, 0, 10}});
  const std::vector<unsigned> E =
      stageExtents(*M.reconfigure(*G.Root, Snap, C, makeCtx()));
  EXPECT_EQ(E[1], 3u);
  EXPECT_EQ(E[2], 5u);
  EXPECT_EQ(E[3], 3u);
}

TEST(Seda, UncoordinatedAllocationsCanExceedBudget) {
  PipelineGraph G = ferretLikeGraph(false);
  SedaMechanism M({8.0, 1.0, /*PerStageCap=*/0, /*ClampTotal=*/false});
  RegionConfig C = configWithExtents({1, 23, 23, 23, 1});
  RegionSnapshot Snap = makePipelineSnapshot(
      G, C,
      {{0.1, 0, 10}, {0.8, 50, 10}, {8.0, 50, 10}, {2.0, 50, 10},
       {0.1, 0, 10}});
  const std::vector<unsigned> E =
      stageExtents(*M.reconfigure(*G.Root, Snap, C, makeCtx(24)));
  unsigned Total = 0;
  for (unsigned X : E)
    Total += X;
  // 24 per parallel stage plus sequential stages: oversubscribed.
  EXPECT_GT(Total, 24u);
}

TEST(Seda, ClampedVariantRespectsBudget) {
  PipelineGraph G = ferretLikeGraph(false);
  SedaMechanism M({8.0, 1.0, 0, /*ClampTotal=*/true});
  RegionConfig C = configWithExtents({1, 10, 10, 10, 1});
  RegionSnapshot Snap = makePipelineSnapshot(
      G, C,
      {{0.1, 0, 10}, {0.8, 50, 10}, {8.0, 50, 10}, {2.0, 50, 10},
       {0.1, 0, 10}});
  const std::vector<unsigned> E =
      stageExtents(*M.reconfigure(*G.Root, Snap, C, makeCtx(24)));
  unsigned Total = 0;
  for (unsigned X : E)
    Total += X;
  EXPECT_LE(Total, 24u);
}

} // namespace
