//===- tests/EdpTest.cpp - Energy-delay-product mechanism tests --------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/Edp.h"

#include "mechanisms/ServerNest.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

TEST(Edp, ScoreMatchesClosedForm) {
  // Ideal linear speedup: EDP(m) = m / m^2 = 1/m.
  EdpMechanism M({SpeedupCurve(0.0, 0.0), 8, 1.15, 0});
  EXPECT_DOUBLE_EQ(M.edpScore(1), 1.0);
  EXPECT_DOUBLE_EQ(M.edpScore(4), 0.25);
}

TEST(Edp, ScalableCurvePrefersWideExtents) {
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  EXPECT_EQ(M.extentForDemand(0.0), 8u);
}

TEST(Edp, OverheadyCurveStaysSequential) {
  // bzip-like: S(4) = 1.21, so EDP(4) = 4 / 1.47 > 1 = EDP(1).
  EdpMechanism M({SpeedupCurve(0.3, 1.4, 8.0), 8, 1.15, 0});
  EXPECT_EQ(M.extentForDemand(0.0), 1u);
}

TEST(Edp, DemandForcesNarrowExtents) {
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  // Efficiency at 8 is 0.88: feasible up to demand ~0.76 (0.88 / 1.15).
  EXPECT_EQ(M.extentForDemand(0.5), 8u);
  EXPECT_LT(M.extentForDemand(0.85), 8u);
  EXPECT_EQ(M.extentForDemand(1.0), 1u);
}

TEST(Edp, ReconfigureProducesValidServerConfig) {
  ServerNestGraph G = makeServerNestGraph();
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  RegionConfig Current = makeServerConfig(*G.Root, 24, 1);
  RegionSnapshot Snap = makeServerSnapshot(G, /*Occupancy=*/0.0, 24, 1);
  MechanismContext Ctx;
  Ctx.MaxThreads = 24;
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, Current, Ctx);
  ASSERT_TRUE(Next.has_value());
  std::string Error;
  EXPECT_TRUE(validateConfig(*G.Root, *Next, &Error)) << Error;
  EXPECT_EQ(serverInnerExtent(*Next), 8u);
  EXPECT_LE(totalThreads(*G.Root, *Next), 24u);
}

TEST(Edp, QueuePressureNarrowsExtent) {
  ServerNestGraph G = makeServerNestGraph();
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  RegionConfig Current = makeServerConfig(*G.Root, 3, 8);
  // A standing backlog of 12 transactions on 24 contexts saturates the
  // demand estimate.
  RegionSnapshot Snap = makeServerSnapshot(G, /*Occupancy=*/12.0, 3, 8);
  MechanismContext Ctx;
  Ctx.MaxThreads = 24;
  std::optional<RegionConfig> Next =
      M.reconfigure(*G.Root, Snap, Current, Ctx);
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(serverInnerExtent(*Next), 1u);
  EXPECT_EQ(serverOuterExtent(*Next), 24u);
}

TEST(Edp, ReportsNoChangeAsNullopt) {
  ServerNestGraph G = makeServerNestGraph();
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  MechanismContext Ctx;
  Ctx.MaxThreads = 24;
  const RegionSnapshot Idle = makeServerSnapshot(G, 0.0, 24, 1);
  const RegionConfig Seq = makeServerConfig(*G.Root, 24, 1);
  // Idle: the widest extent, the config makeServerConfig builds.
  const std::optional<RegionConfig> Wide =
      M.reconfigure(*G.Root, Idle, Seq, Ctx);
  ASSERT_TRUE(Wide.has_value());
  EXPECT_TRUE(*Wide == makeServerConfig(*G.Root, 3, 8));
  // Still idle with it running: no change.
  EXPECT_FALSE(M.reconfigure(*G.Root, makeServerSnapshot(G, 0.0, 3, 8), *Wide,
                             Ctx)
                   .has_value());
  // Saturated while SEQ runs: SEQ again, no change.
  EXPECT_FALSE(
      M.reconfigure(*G.Root, makeServerSnapshot(G, 12.0, 24, 1), Seq, Ctx)
          .has_value());
}

TEST(Edp, ResetForgetsTheConfigBuiltForAnotherGraph) {
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  MechanismContext Ctx;
  Ctx.MaxThreads = 24;
  {
    ServerNestGraph G = makeServerNestGraph();
    ASSERT_TRUE(M.reconfigure(*G.Root, makeServerSnapshot(G, 0.0),
                              makeServerConfig(*G.Root, 24, 1), Ctx)
                    .has_value());
  }
  // Same extents on a nest whose inner region has three tasks.
  M.reset();
  PipelineGraph P = makePipelineGraph(
      {{"read", false}, {"work", true}, {"write", false}});
  RegionSnapshot Idle;
  Idle.Tasks.resize(1);
  const std::optional<RegionConfig> Next =
      M.reconfigure(*P.Root, Idle, defaultConfig(*P.Root), Ctx);
  ASSERT_TRUE(Next.has_value());
  std::string Error;
  EXPECT_TRUE(validateConfig(*P.Root, *Next, &Error)) << Error;
  EXPECT_EQ(serverInnerExtent(*Next), 8u);
}

TEST(Edp, IgnoresNonServerShapes) {
  PipelineGraph G = makePipelineGraph({{"a", true}, {"b", true}});
  const ParDescriptor *Stages = G.Driver->descriptor()->alternative(0);
  EdpMechanism M({SpeedupCurve(0.02, 0.0, 18.0), 8, 1.15, 0});
  RegionConfig Config;
  Config.Tasks.resize(2);
  RegionSnapshot Snap;
  Snap.Tasks.resize(2);
  MechanismContext Ctx;
  Ctx.MaxThreads = 24;
  EXPECT_FALSE(M.reconfigure(*Stages, Snap, Config, Ctx).has_value());
}

} // namespace
