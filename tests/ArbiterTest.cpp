//===- tests/ArbiterTest.cpp - Platform arbiter unit tests -----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "arbiter/Arbiter.h"
#include "arbiter/UtilityEstimator.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

using namespace dope;

namespace {

TenantSpec throughputTenant(const std::string &Name, double Weight = 1.0) {
  TenantSpec S;
  S.Name = Name;
  S.Goal = TenantGoal::Throughput;
  S.Weight = Weight;
  return S;
}

TenantSpec latencyTenant(const std::string &Name, double SloSeconds,
                         double Weight = 1.0) {
  TenantSpec S;
  S.Name = Name;
  S.Goal = TenantGoal::ResponseTime;
  S.SloSeconds = SloSeconds;
  S.Weight = Weight;
  return S;
}

/// Feeds a saturated sample: queue backed up so the observation teaches
/// the estimator, throughput as given.
TenantSample saturated(double Time, unsigned Threads, double Throughput) {
  TenantSample S;
  S.Time = Time;
  S.GrantedThreads = Threads;
  S.Throughput = Throughput;
  S.OfferedRate = Throughput * 4.0;
  S.QueueDepth = 50.0;
  return S;
}

TEST(Arbiter, SingleTenantGetsWholePlatform) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Arbiter Arb(Opts);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  EXPECT_EQ(Arb.leaseOf(A).Threads, 24u);
}

TEST(Arbiter, EqualTenantsSplitEqually) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Arbiter Arb(Opts);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  const TenantId B = Arb.addTenant(throughputTenant("b"), 0.0);
  EXPECT_EQ(Arb.leaseOf(A).Threads + Arb.leaseOf(B).Threads, 24u);
  EXPECT_EQ(Arb.leaseOf(A).Threads, 12u);
  EXPECT_EQ(Arb.leaseOf(B).Threads, 12u);
}

TEST(Arbiter, WeightTiltsEqualShareBids) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Arbiter Arb(Opts);
  const TenantId Heavy = Arb.addTenant(throughputTenant("heavy", 2.0), 0.0);
  const TenantId Light = Arb.addTenant(throughputTenant("light", 1.0), 0.0);
  EXPECT_EQ(Arb.leaseOf(Heavy).Threads + Arb.leaseOf(Light).Threads, 24u);
  // Harmonic equal-share bidding converges to weighted proportional
  // shares: roughly 2:1.
  EXPECT_GE(Arb.leaseOf(Heavy).Threads, 14u);
  EXPECT_GE(Arb.leaseOf(Light).Threads, 7u);
}

TEST(Arbiter, JoinRevokesBeforeGranting) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Arbiter Arb(Opts);
  Arb.addTenant(throughputTenant("a"), 0.0);
  std::vector<LeaseChange> Changes;
  Arb.addTenant(throughputTenant("b"), 1.0, &Changes);
  ASSERT_FALSE(Changes.empty());
  bool SawGrant = false;
  for (const LeaseChange &C : Changes) {
    if (C.isGrant())
      SawGrant = true;
    else
      EXPECT_FALSE(SawGrant) << "revocation ordered after a grant";
  }
  // Applying in order never overcommits.
  unsigned HeldA = 24, HeldB = 0;
  for (const LeaseChange &C : Changes) {
    (C.Tenant == "a" ? HeldA : HeldB) = C.NewThreads;
    EXPECT_LE(HeldA + HeldB, 24u);
  }
}

TEST(Arbiter, MinAndMaxThreadsRespected) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Arbiter Arb(Opts);
  TenantSpec Floor = throughputTenant("floor");
  Floor.MinThreads = 6;
  TenantSpec Ceiling = throughputTenant("ceiling", 8.0); // outbids heavily
  Ceiling.MaxThreads = 4;
  const TenantId F = Arb.addTenant(Floor, 0.0);
  const TenantId C = Arb.addTenant(Ceiling, 0.0);
  for (double Now = 2.0; Now <= 20.0; Now += 2.0) {
    Arb.reportSample(F, saturated(Now, Arb.leaseOf(F).Threads, 5.0));
    Arb.reportSample(C, saturated(Now, Arb.leaseOf(C).Threads, 50.0));
    Arb.rebalance(Now);
    EXPECT_GE(Arb.leaseOf(F).Threads, 6u);
    EXPECT_LE(Arb.leaseOf(C).Threads, 4u);
  }
}

TEST(Arbiter, PowerBudgetCapsThePool) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Opts.PowerBudgetWatts = 100.0;
  Opts.WattsPerThread = 10.0;
  Opts.IdlePowerWatts = 20.0; // (100 - 20) / 10 = 8 grantable
  Arbiter Arb(Opts);
  EXPECT_EQ(Arb.grantableThreads(), 8u);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  const TenantId B = Arb.addTenant(throughputTenant("b"), 0.0);
  EXPECT_LE(Arb.leaseOf(A).Threads + Arb.leaseOf(B).Threads, 8u);
  EXPECT_DOUBLE_EQ(Arb.leaseOf(A).PowerWatts,
                   10.0 * Arb.leaseOf(A).Threads);
}

TEST(Arbiter, EpochGateSuppressesEarlyRebalance) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Opts.EpochSeconds = 2.0;
  Arbiter Arb(Opts);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  const TenantId B = Arb.addTenant(throughputTenant("b"), 0.0);
  // Strong utility signal for B, but the epoch has not elapsed.
  Arb.reportSample(A, saturated(0.5, Arb.leaseOf(A).Threads, 1.0));
  Arb.reportSample(B, saturated(0.5, Arb.leaseOf(B).Threads, 100.0));
  EXPECT_TRUE(Arb.rebalance(0.5).empty());
  EXPECT_TRUE(Arb.rebalance(1.9).empty());
}

TEST(Arbiter, UtilityBiddingShiftsThreadsToTheScalableTenant) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Opts.EpochSeconds = 2.0;
  Arbiter Arb(Opts);
  const TenantId Scaler = Arb.addTenant(throughputTenant("scaler"), 0.0);
  const TenantId Flat = Arb.addTenant(throughputTenant("flat"), 0.0);

  // History spanning two extents each (as earlier lease changes would
  // leave behind): Scaler's throughput tracks its grant ~linearly; Flat
  // is stuck at 4/s no matter how many threads it holds. The arbiter
  // never explores on its own — grant diversity comes from membership
  // churn and load swings — so the unit test seeds it directly.
  Arb.reportSample(Scaler, saturated(2.0, 4, 8.0));
  Arb.reportSample(Scaler, saturated(2.0, 8, 16.0));
  Arb.reportSample(Flat, saturated(2.0, 4, 4.0));
  Arb.reportSample(Flat, saturated(2.0, 12, 4.0));
  Arb.rebalance(2.0);

  EXPECT_GT(Arb.leaseOf(Scaler).Threads, 16u)
      << "scaler should have outbid the flat tenant";
  EXPECT_GE(Arb.leaseOf(Flat).Threads, 1u);
  EXPECT_GT(Arb.lastBidOf(Scaler), Arb.lastBidOf(Flat));
}

TEST(Arbiter, SloBreachTriggersUrgentReallocation) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Opts.EpochSeconds = 2.0;
  Arbiter Arb(Opts);
  const TenantId Lat = Arb.addTenant(latencyTenant("lat", 0.5, 2.0), 0.0);
  const TenantId Batch = Arb.addTenant(throughputTenant("batch"), 0.0);

  // Let the batch tenant absorb the platform while the latency tenant
  // idles comfortably.
  for (double Now = 2.0; Now <= 10.0; Now += 2.0) {
    TenantSample Comfy;
    Comfy.Time = Now;
    Comfy.GrantedThreads = Arb.leaseOf(Lat).Threads;
    Comfy.Throughput = 5.0;
    Comfy.OfferedRate = 5.0;
    Comfy.P95ResponseSeconds = 0.1;
    Arb.reportSample(Lat, Comfy);
    Arb.reportSample(Batch,
                     saturated(Now, Arb.leaseOf(Batch).Threads,
                               3.0 * Arb.leaseOf(Batch).Threads));
    Arb.rebalance(Now);
  }
  const unsigned Before = Arb.leaseOf(Lat).Threads;
  EXPECT_LE(Before, 6u) << "comfortable latency tenant should have yielded";

  // Burst: p95 blows through the SLO.
  TenantSample Burning;
  Burning.Time = 12.0;
  Burning.GrantedThreads = Before;
  Burning.Throughput = 10.0;
  Burning.OfferedRate = 80.0;
  Burning.P95ResponseSeconds = 3.0;
  Burning.QueueDepth = 120.0;
  Arb.reportSample(Lat, Burning);
  const std::vector<LeaseChange> Changes = Arb.rebalance(12.0);
  EXPECT_FALSE(Changes.empty());
  EXPECT_GT(Arb.leaseOf(Lat).Threads, Before)
      << "burning SLO must pull threads back";
  bool SawUrgent = false;
  for (const LeaseChange &C : Changes)
    SawUrgent |= C.Reason == "slo-urgent";
  EXPECT_TRUE(SawUrgent);
}

TEST(Arbiter, HysteresisSuppressesOneThreadDrift) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 23; // odd pool: equal-share target dithers by 1
  Opts.HysteresisThreads = 1;
  Arbiter Arb(Opts);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  const TenantId B = Arb.addTenant(throughputTenant("b"), 0.0);
  const unsigned HeldA = Arb.leaseOf(A).Threads;
  const unsigned HeldB = Arb.leaseOf(B).Threads;
  // No samples at all: targets stay within one thread of the holding,
  // so every epoch is suppressed — leases must not thrash.
  for (double Now = 2.0; Now <= 40.0; Now += 2.0)
    EXPECT_TRUE(Arb.rebalance(Now).empty()) << "thrash at t=" << Now;
  EXPECT_EQ(Arb.leaseOf(A).Threads, HeldA);
  EXPECT_EQ(Arb.leaseOf(B).Threads, HeldB);
}

TEST(Arbiter, RemoveTenantFreesItsLease) {
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Arbiter Arb(Opts);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  const TenantId B = Arb.addTenant(throughputTenant("b"), 0.0);
  std::vector<LeaseChange> Changes;
  Arb.removeTenant(B, 1.0, &Changes);
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_EQ(Changes[0].NewThreads, 0u);
  EXPECT_EQ(Changes[0].Reason, "leave");
  EXPECT_EQ(Arb.tenantCount(), 1u);
  // Next epoch the survivor reclaims the slack.
  Arb.rebalance(2.0);
  EXPECT_EQ(Arb.leaseOf(A).Threads, 24u);
}

TEST(Arbiter, TraceRecordsLifecycle) {
  Tracer Trace(1 << 14);
  ArbiterOptions Opts;
  Opts.TotalThreads = 24;
  Opts.Trace = &Trace;
  Arbiter Arb(Opts);
  const TenantId A = Arb.addTenant(throughputTenant("a"), 0.0);
  const TenantId B = Arb.addTenant(throughputTenant("b"), 0.0);
  Arb.reportSample(A, saturated(2.0, Arb.leaseOf(A).Threads, 30.0));
  Arb.reportSample(B, saturated(2.0, Arb.leaseOf(B).Threads, 2.0));
  Arb.rebalance(2.0);
  Arb.removeTenant(B, 3.0);

  size_t Grants = 0, Revokes = 0, Utilities = 0;
  for (const TraceRecord &R : Trace.drain()) {
    Grants += R.Kind == TraceKind::LeaseGrant;
    Revokes += R.Kind == TraceKind::LeaseRevoke;
    Utilities += R.Kind == TraceKind::TenantUtility;
  }
  EXPECT_GT(Grants, 0u);
  EXPECT_GT(Revokes, 0u) << "join re-split and leave must revoke";
  EXPECT_GT(Utilities, 0u);
}

TEST(UtilityEstimator, FallsBackWithoutTwoExtents) {
  SpeedupFitCache Fits;
  UtilityEstimator E(Fits);
  EXPECT_FALSE(E.hasHistory());
  E.observe(4, 10.0);
  E.observe(4, 12.0);
  EXPECT_FALSE(E.hasHistory());
  E.observe(8, 18.0);
  EXPECT_TRUE(E.hasHistory());
  EXPECT_GT(E.predictRate(8), E.predictRate(4));
}

TEST(UtilityEstimator, MarginalRateNeverNegative) {
  SpeedupFitCache Fits;
  UtilityEstimator E(Fits);
  // Anti-scaling observations: more threads, less throughput.
  E.observe(2, 20.0);
  E.observe(8, 12.0);
  E.observe(16, 8.0);
  for (unsigned K = 1; K <= 24; ++K)
    EXPECT_GE(E.marginalRate(K), 0.0);
}

TEST(UtilityEstimator, SmoothsRepeatedObservations) {
  SpeedupFitCache Fits;
  UtilityEstimator E(Fits, 0.5);
  E.observe(4, 10.0);
  E.observe(4, 20.0); // EMA: 15
  E.observe(2, 6.0);
  const double Predicted = E.predictRate(4);
  EXPECT_GT(Predicted, 10.0);
  EXPECT_LT(Predicted, 20.0);
}

TEST(UtilityEstimator, IdenticalTablesCostOneFit) {
  SpeedupFitCache Fits;
  UtilityEstimator A(Fits), B(Fits), C(Fits);
  for (UtilityEstimator *E : {&A, &B}) {
    E->observe(2, 9.0);
    E->observe(4, 15.0);
  }
  C.observe(2, 9.0);
  C.observe(4, 16.0);
  EXPECT_EQ(A.predictRate(6), B.predictRate(6));
  EXPECT_EQ(Fits.size(), 1u) << "B reuses A's fit";
  C.predictRate(6);
  EXPECT_EQ(Fits.size(), 2u);
}

TEST(UtilityEstimator, RefitsOnlyWhenTheTableChanges) {
  SpeedupFitCache Fits;
  UtilityEstimator E(Fits, 0.5);
  E.observe(2, 10.0);
  E.observe(4, 16.0);
  const double Before = E.predictRate(8);
  // Overfill the cache so that it clears and no longer holds E's table:
  // from here on a refit is a miss, and shows as one more entry.
  const size_t Fillers = SpeedupFitCache::Capacity - Fits.size() + 1;
  for (size_t I = 0; I != Fillers; ++I)
    Fits.fit({{1, 2.0 + static_cast<double>(I)}});
  ASSERT_EQ(Fits.size(), 1u);
  E.observe(4, 16.0);        // EMA at its fixed point
  E.setObservation(2, 10.0); // verbatim restore of the same value
  EXPECT_EQ(E.predictRate(8), Before);
  EXPECT_EQ(Fits.size(), 1u) << "no refit";
  E.observe(4, 20.0);
  EXPECT_GT(E.predictRate(8), Before);
  EXPECT_EQ(Fits.size(), 2u) << "the changed table was fitted";
}

} // namespace
