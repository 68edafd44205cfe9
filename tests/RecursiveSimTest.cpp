//===- tests/RecursiveSimTest.cpp - Recursive workload model tests ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The seeded recursive-tree workload: the analytic model is unimodal in
// the grain, GrainAdapt walks to within 10% of the best fixed grain from
// both faulty starts (too fine, too coarse), and runs replay
// bit-identically under the DOPE_TEST_SEED convention.
//
//===----------------------------------------------------------------------===//

#include "sim/RecursiveSim.h"

#include "mechanisms/GrainAdapt.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <vector>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

const unsigned SweepGrains[] = {16,  32,   64,   128,  256,
                                512, 1024, 2048, 4096, 8192};

RecursiveSim makeSim(uint64_t Seed) {
  RecursiveWorkModel Model;
  RecursiveSimOptions Opts;
  Opts.Workers = 8;
  Opts.Leaves = 1ull << 22;
  Opts.LeavesPerEpoch = 1ull << 16; // 64 epochs
  Opts.Seed = Seed;
  return RecursiveSim(std::move(Model), Opts);
}

/// Best fixed-grain throughput over the sweep, under the same seed.
double bestFixedThroughput(RecursiveSim &Sim, unsigned *BestGrain = nullptr) {
  double Best = 0.0;
  for (unsigned G : SweepGrains) {
    const RecursiveSimResult R = Sim.run(nullptr, G, 8);
    if (R.Throughput > Best) {
      Best = R.Throughput;
      if (BestGrain)
        *BestGrain = G;
    }
  }
  return Best;
}

TEST(RecursiveSim, EpochTimeIsUnimodalInGrain) {
  RecursiveSim Sim = makeSim(42);
  std::vector<double> Times;
  for (unsigned G : SweepGrains)
    Times.push_back(Sim.epochSeconds(G, 8));

  // Interior optimum: both endpoints (fine-grain overhead, coarse-grain
  // starvation) are strictly worse than the best grain.
  const size_t BestIdx =
      std::min_element(Times.begin(), Times.end()) - Times.begin();
  EXPECT_GT(BestIdx, 0u);
  EXPECT_LT(BestIdx, Times.size() - 1);
  EXPECT_GT(Times.front(), Times[BestIdx] * 1.05);
  EXPECT_GT(Times.back(), Times[BestIdx] * 1.05);
  // And the shape is a single valley: monotone down to the optimum,
  // monotone up after it.
  for (size_t I = 0; I < BestIdx; ++I)
    EXPECT_GE(Times[I], Times[I + 1]) << "descending flank at " << I;
  for (size_t I = BestIdx; I + 1 < Times.size(); ++I)
    EXPECT_LE(Times[I], Times[I + 1]) << "ascending flank at " << I;
}

TEST(RecursiveSim, FixedRunsAreDeterministicAndPauseFree) {
  RecursiveSim Sim = makeSim(loggedSeed(42));
  const RecursiveSimResult A = Sim.run(nullptr, 256, 8);
  const RecursiveSimResult B = Sim.run(nullptr, 256, 8);
  EXPECT_EQ(A.Throughput, B.Throughput); // bit-identical
  EXPECT_EQ(A.Verdicts.Accepted, 0u);
  EXPECT_TRUE(A.DecisionLog.empty());
  EXPECT_EQ(A.FinalGrain, 256u);
}

TEST(RecursiveSim, GrainAdaptFromTooFineConvergesWithinTenPercent) {
  RecursiveSim Sim = makeSim(loggedSeed(42));
  unsigned BestGrain = 0;
  const double Best = bestFixedThroughput(Sim, &BestGrain);

  GrainAdaptMechanism M;
  const RecursiveSimResult R = Sim.run(&M, /*InitialGrain=*/16, 8);
  EXPECT_EQ(R.Verdicts.Invalid, 0u);
  EXPECT_EQ(R.Verdicts.OverEnvelope, 0u);
  EXPECT_GT(R.Verdicts.Accepted, 0u); // it walked
  EXPECT_GT(R.FinalGrain, 16u);      // coarsened out of thrash
  EXPECT_EQ(R.FinalExtent, 8u);
  // Whole-run throughput (transient + pauses included) within 10% of
  // the best fixed grain of the sweep.
  EXPECT_GE(R.Throughput, 0.9 * Best)
      << "converged at g=" << R.FinalGrain << ", best fixed g=" << BestGrain;
  // And the grain it settled on is itself near-optimal in steady state.
  EXPECT_LE(Sim.epochSeconds(R.FinalGrain, 8),
            1.1 * Sim.epochSeconds(BestGrain, 8));
}

TEST(RecursiveSim, GrainAdaptFromTooCoarseConvergesWithinTenPercent) {
  RecursiveSim Sim = makeSim(loggedSeed(42));
  unsigned BestGrain = 0;
  const double Best = bestFixedThroughput(Sim, &BestGrain);

  GrainAdaptMechanism M;
  const RecursiveSimResult R = Sim.run(&M, /*InitialGrain=*/8192, 8);
  EXPECT_EQ(R.Verdicts.Invalid, 0u);
  EXPECT_EQ(R.Verdicts.OverEnvelope, 0u);
  EXPECT_GT(R.Verdicts.Accepted, 0u);
  EXPECT_LT(R.FinalGrain, 8192u); // refined out of starvation
  EXPECT_GE(R.Throughput, 0.9 * Best)
      << "converged at g=" << R.FinalGrain << ", best fixed g=" << BestGrain;
  EXPECT_LE(Sim.epochSeconds(R.FinalGrain, 8),
            1.1 * Sim.epochSeconds(BestGrain, 8));
}

TEST(RecursiveSim, AdaptiveRunReplaysBitIdentically) {
  const uint64_t Seed = loggedSeed(42);
  auto RunOnce = [Seed] {
    RecursiveSim Sim = makeSim(Seed);
    GrainAdaptMechanism M;
    return Sim.run(&M, 16, 1); // extent walk included
  };
  const RecursiveSimResult A = RunOnce();
  const RecursiveSimResult B = RunOnce();

  EXPECT_EQ(A.Throughput, B.Throughput); // exact, not approximate
  EXPECT_EQ(A.TotalSeconds, B.TotalSeconds);
  EXPECT_EQ(A.FinalGrain, B.FinalGrain);
  EXPECT_EQ(A.FinalExtent, B.FinalExtent);
  ASSERT_EQ(A.DecisionLog.size(), B.DecisionLog.size());
  for (size_t I = 0; I != A.DecisionLog.size(); ++I)
    EXPECT_EQ(A.DecisionLog[I], B.DecisionLog[I]) << "decision " << I;
  // The extent was pinned to the budget by the first applied decision.
  EXPECT_EQ(A.FinalExtent, 8u);
}

TEST(RecursiveSim, DistinctSeedsChangeTheClockButNotTheWalk) {
  RecursiveSim SimA = makeSim(1);
  RecursiveSim SimB = makeSim(2);
  GrainAdaptMechanism MA, MB;
  const RecursiveSimResult A = SimA.run(&MA, 16, 8);
  const RecursiveSimResult B = SimB.run(&MB, 16, 8);
  // Jitter shifts virtual time...
  EXPECT_NE(A.TotalSeconds, B.TotalSeconds);
  // ...but the adaptation policy is robust to it: same final grain.
  EXPECT_EQ(A.FinalGrain, B.FinalGrain);
}

} // namespace
