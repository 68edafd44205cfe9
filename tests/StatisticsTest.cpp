//===- tests/StatisticsTest.cpp - Streaming statistics tests ---------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace dope;

namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), 0.0);
  EXPECT_DOUBLE_EQ(S.max(), 0.0);
}

TEST(StreamingStats, BasicMoments) {
  StreamingStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.addSample(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.variance(), 32.0 / 7.0, 1e-12); // unbiased
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.sum(), 40.0);
}

TEST(StreamingStats, SingleSampleVarianceIsZero) {
  StreamingStats S;
  S.addSample(3.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(StreamingStats, ResetClears) {
  StreamingStats S;
  S.addSample(5.0);
  S.reset();
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
}

TEST(PercentileTracker, MedianOfOddCount) {
  PercentileTracker P;
  for (double X : {5.0, 1.0, 3.0})
    P.addSample(X);
  EXPECT_DOUBLE_EQ(P.median(), 3.0);
}

TEST(PercentileTracker, InterpolatesBetweenSamples) {
  PercentileTracker P;
  for (double X : {10.0, 20.0})
    P.addSample(X);
  EXPECT_DOUBLE_EQ(P.percentile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(P.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(P.percentile(1.0), 20.0);
}

TEST(PercentileTracker, EmptyReturnsZero) {
  PercentileTracker P;
  EXPECT_DOUBLE_EQ(P.percentile(0.9), 0.0);
}

TEST(PercentileTracker, TailPercentiles) {
  PercentileTracker P;
  for (int I = 1; I <= 100; ++I)
    P.addSample(static_cast<double>(I));
  EXPECT_NEAR(P.percentile(0.99), 99.01, 0.011);
  EXPECT_NEAR(P.percentile(0.50), 50.5, 0.001);
}

TEST(PercentileTracker, InsertAfterQueryStillSorts) {
  PercentileTracker P;
  P.addSample(2.0);
  EXPECT_DOUBLE_EQ(P.median(), 2.0);
  P.addSample(1.0);
  P.addSample(3.0);
  EXPECT_DOUBLE_EQ(P.median(), 2.0);
}

TEST(Geomean, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
}

TEST(Geomean, PaperExampleOneThirtySixPercent) {
  // "The throughputs of two batch-oriented applications were improved by
  // 136% (geomean)": e.g. 2.12x and 2.63x give roughly 2.36x.
  EXPECT_NEAR(geomean({2.12, 2.63}), 2.36, 0.03);
}

} // namespace
