//===- tests/ColocationSimTest.cpp - Multi-tenant simulator tests ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/ColocationSim.h"

#include "sim/ChaosInvariants.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace dope;

#ifndef DOPE_GOLDEN_DIR
#error "DOPE_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

/// Latency-sensitive nested-parallel server: needs only a sliver of the
/// machine at base load, triple load during the mid-run burst.
ColocationTenantSpec frontendTenant() {
  ColocationTenantSpec T;
  T.Tenant.Name = "frontend";
  T.Tenant.Goal = TenantGoal::ResponseTime;
  T.Tenant.Weight = 2.0;
  T.Tenant.MinThreads = 2;
  T.Tenant.SloSeconds = 0.5;
  T.Kind = ColocationTenantSpec::AppKind::NestServer;
  T.Nest.Name = "frontend";
  T.Nest.SeqServiceSeconds = 0.05;
  T.Nest.Curve = SpeedupCurve(0.1, 0.2);
  T.ArrivalRate = 40.0;
  T.ArrivalSchedule.addPhase(1.0, 30.0);
  T.ArrivalSchedule.addPhase(3.0, 20.0); // antagonist burst: 120/s
  T.ArrivalSchedule.addPhase(1.0, 1e9);
  return T;
}

/// Throughput-hungry pipeline batch job: oversubscribed at any grant the
/// platform can give it — it absorbs every spare thread.
ColocationTenantSpec batchTenant() {
  ColocationTenantSpec T;
  T.Tenant.Name = "batch";
  T.Tenant.Goal = TenantGoal::Throughput;
  T.Tenant.Weight = 1.0;
  T.Kind = ColocationTenantSpec::AppKind::Pipeline;
  T.Pipeline.Name = "batch";
  T.Pipeline.Stages = {{"decode", true, 0.02, 0.15},
                       {"work", true, 0.1, 0.15},
                       {"sink", true, 0.03, 0.15}};
  T.ArrivalRate = 200.0;
  return T;
}

ColocationSimOptions quickOptions(ColocationPolicy Policy) {
  ColocationSimOptions Opts;
  Opts.Contexts = 24;
  Opts.Seed = 42;
  Opts.DurationSeconds = 80.0;
  Opts.StepSeconds = 0.05;
  Opts.WarmupSeconds = 4.0;
  Opts.Policy = Policy;
  return Opts;
}

ColocationSimResult runPolicy(ColocationPolicy Policy, uint64_t Seed = 42) {
  ColocationSimOptions Opts = quickOptions(Policy);
  Opts.Seed = Seed;
  ColocationSim Sim({frontendTenant(), batchTenant()}, Opts);
  return Sim.run();
}

TEST(ColocationSim, CapacityCurvesAreSane) {
  const ColocationTenantSpec Front = frontendTenant();
  const ColocationTenantSpec Batch = batchTenant();
  // More threads never reduce capacity, and the curves are nontrivial.
  for (unsigned K = 1; K < 24; ++K) {
    EXPECT_LE(ColocationSim::capacity(Front, K),
              ColocationSim::capacity(Front, K + 1) + 1e-9);
    EXPECT_LE(ColocationSim::capacity(Batch, K),
              ColocationSim::capacity(Batch, K + 1) + 1e-9);
  }
  // Pipeline bottleneck math: at 12 threads greedy replication yields
  // stage extents (2, 7, 3) and the 0.1 s stage bounds throughput.
  EXPECT_NEAR(ColocationSim::capacity(Batch, 12), 70.0, 1e-9);
  // One nest thread serves 1/T1 = 20/s.
  EXPECT_NEAR(ColocationSim::capacity(Front, 1), 20.0, 1e-9);
  EXPECT_GT(ColocationSim::serviceLatency(Front, 4), 0.0);
  EXPECT_NEAR(ColocationSim::serviceLatency(Batch, 12), 0.15, 1e-9);
}

TEST(ColocationSim, DeterministicUnderSameSeed) {
  const ColocationSimResult A = runPolicy(ColocationPolicy::Arbiter, 7);
  const ColocationSimResult B = runPolicy(ColocationPolicy::Arbiter, 7);
  ASSERT_EQ(A.Tenants.size(), B.Tenants.size());
  for (size_t I = 0; I != A.Tenants.size(); ++I) {
    EXPECT_EQ(A.Tenants[I].Arrived, B.Tenants[I].Arrived);
    EXPECT_EQ(A.Tenants[I].Completed, B.Tenants[I].Completed);
    EXPECT_EQ(A.Tenants[I].SloHits, B.Tenants[I].SloHits);
    EXPECT_EQ(A.Tenants[I].LeaseChanges, B.Tenants[I].LeaseChanges);
  }
  EXPECT_EQ(A.LeaseChanges, B.LeaseChanges);
  EXPECT_DOUBLE_EQ(A.Fairness.AggregateAttainment,
                   B.Fairness.AggregateAttainment);
}

TEST(ColocationSim, AllPoliciesCompleteWork) {
  for (ColocationPolicy P :
       {ColocationPolicy::Arbiter, ColocationPolicy::StaticSplit,
        ColocationPolicy::Oversubscribed}) {
    const ColocationSimResult R = runPolicy(P);
    ASSERT_EQ(R.Tenants.size(), 2u) << toString(P);
    for (const TenantStats &T : R.Tenants) {
      EXPECT_GT(T.Arrived, 0u) << toString(P) << " " << T.Name;
      EXPECT_GT(T.Completed, 0u) << toString(P) << " " << T.Name;
    }
    EXPECT_GT(R.Fairness.AggregateAttainment, 0.0) << toString(P);
    EXPECT_LE(R.Fairness.AggregateAttainment, 1.0 + 1e-9) << toString(P);
  }
}

TEST(ColocationSim, LeaseChangesOnlyUnderArbiter) {
  EXPECT_GT(runPolicy(ColocationPolicy::Arbiter).LeaseChanges, 0u);
  EXPECT_EQ(runPolicy(ColocationPolicy::StaticSplit).LeaseChanges, 0u);
  EXPECT_EQ(runPolicy(ColocationPolicy::Oversubscribed).LeaseChanges, 0u);
}

TEST(ColocationSim, ArbiterBeatsStaticSplitOnAggregateAttainment) {
  // The half-split strands ~10 threads on the frontend silo; the
  // arbiter hands them to the starved batch tenant and snaps back
  // during the frontend burst.
  const ColocationSimResult Arb = runPolicy(ColocationPolicy::Arbiter);
  const ColocationSimResult Split = runPolicy(ColocationPolicy::StaticSplit);
  EXPECT_GT(Arb.Fairness.AggregateAttainment,
            Split.Fairness.AggregateAttainment);

  // And not by sacrificing the latency tenant: the frontend keeps its
  // SLO hit rate high through the burst.
  const TenantStats &Front = Arb.Tenants[0];
  ASSERT_EQ(Front.Name, "frontend");
  EXPECT_GT(Front.goalAttainment(), 0.9);
}

TEST(ColocationSim, OversubscriptionDegradesBothTenants) {
  // Against the static half-split (identical 12/12 grants), the
  // oversubscribed baseline is strictly worse: time-slicing two
  // machine-wide tenant footprints stretches every response and taxes
  // every stage's throughput.
  const ColocationSimResult Split = runPolicy(ColocationPolicy::StaticSplit);
  const ColocationSimResult Os = runPolicy(ColocationPolicy::Oversubscribed);
  ASSERT_EQ(Split.Tenants[0].Name, "frontend");
  EXPECT_GT(Os.Tenants[0].Responses.meanResponseTime(),
            Split.Tenants[0].Responses.meanResponseTime());
  EXPECT_LT(Os.Tenants[1].Completed, Split.Tenants[1].Completed);

  // And the arbiter's batch tenant, fed the frontend's idle threads,
  // out-serves the thrashing baseline's batch tenant outright.
  const ColocationSimResult Arb = runPolicy(ColocationPolicy::Arbiter);
  EXPECT_GT(Arb.Tenants[1].goalAttainment(),
            Os.Tenants[1].goalAttainment());
}

TEST(ColocationSim, AdmissionLimitShedsInsteadOfQueueing) {
  ColocationTenantSpec Overloaded = batchTenant();
  Overloaded.Tenant.Name = "overloaded";
  Overloaded.ArrivalRate = 500.0; // far beyond any capacity
  Overloaded.AdmissionLimit = 50;
  ColocationSimOptions Opts = quickOptions(ColocationPolicy::StaticSplit);
  Opts.DurationSeconds = 30.0;
  ColocationSim Sim({frontendTenant(), Overloaded}, Opts);
  const ColocationSimResult R = Sim.run();
  const TenantStats &T = R.Tenants[1];
  EXPECT_GT(T.Shed, 0u);
  EXPECT_LE(T.Completed + T.Shed, T.Arrived);
  // With a 50-item cap, nothing waits longer than cap/capacity plus
  // intrinsic latency — far under the unbounded backlog's wait.
  const double Cap = ColocationSim::capacity(Overloaded, 12);
  EXPECT_LT(T.Responses.maxResponseTime(), 50.0 / Cap + 1.0);
}

TEST(ColocationSim, TraceSinkSeesLeaseAndCounterRecords) {
  Tracer Trace(1 << 16);
  ColocationSimOptions Opts = quickOptions(ColocationPolicy::Arbiter);
  Opts.DurationSeconds = 30.0;
  Opts.TraceSink = &Trace;
  ColocationSim Sim({frontendTenant(), batchTenant()}, Opts);
  Sim.run();
  size_t Leases = 0, Counters = 0, Utilities = 0;
  for (const TraceRecord &R : Trace.drain()) {
    Leases += R.Kind == TraceKind::LeaseGrant ||
              R.Kind == TraceKind::LeaseRevoke;
    Counters += R.Kind == TraceKind::Counter;
    Utilities += R.Kind == TraceKind::TenantUtility;
  }
  EXPECT_GT(Leases, 0u);
  EXPECT_GT(Counters, 0u);
  EXPECT_GT(Utilities, 0u);
}

//===----------------------------------------------------------------------===//
// Lease-protocol chaos coverage
//===----------------------------------------------------------------------===//

TEST(ColocationSim, JournalOpensWithJoinGrantsForEveryTenant) {
  ColocationSimOptions Opts = quickOptions(ColocationPolicy::Arbiter);
  Opts.DurationSeconds = 20.0;
  ColocationSim Sim({frontendTenant(), batchTenant()}, Opts);
  const ColocationSimResult R = Sim.run();
  ASSERT_GE(R.ProtocolJournal.size(), 2u);
  size_t Joins = 0;
  for (const TraceRecord &Rec : R.ProtocolJournal) {
    if (Rec.Time > 0.0)
      break;
    if (Rec.Kind == TraceKind::LeaseGrant && Rec.Detail == "join")
      ++Joins;
  }
  EXPECT_EQ(Joins, 2u);
}

TEST(ColocationSim, CrashedTenantLeaseExpiresByTtl) {
  ColocationSimOptions Opts = quickOptions(ColocationPolicy::Arbiter);
  Opts.DurationSeconds = 48.0;
  Opts.Arbiter.EpochSeconds = 2.0;
  Opts.Arbiter.LeaseTtlSeconds = 5.0;
  ColocationTenantSpec Doomed = batchTenant();
  Doomed.Misbehavior.CrashSeconds = 20.0;
  ColocationSim Sim({frontendTenant(), Doomed}, Opts);
  const ColocationSimResult R = Sim.run();

  // The crashed tenant's threads come back via a TTL expiry, within one
  // epoch of the deadline, and never again after that.
  double ExpireTime = -1.0;
  for (const TraceRecord &Rec : R.ProtocolJournal)
    if (Rec.Kind == TraceKind::LeaseExpire && Rec.Name == "batch") {
      ExpireTime = Rec.Time;
      break;
    }
  // The last heartbeat lands at the epoch boundary before the crash
  // (t=18), so the TTL deadline is 23 and the sweep at t=24 reclaims.
  ASSERT_GE(ExpireTime, 0.0) << "no LeaseExpire journaled for the crash";
  EXPECT_GE(ExpireTime, 20.0 + 5.0 - Opts.Arbiter.EpochSeconds);
  EXPECT_LE(ExpireTime, 20.0 + 5.0 + Opts.Arbiter.EpochSeconds + 1e-9);

  // Post-expiry the allocation timeline shows the survivor holding the
  // machine and the corpse holding nothing.
  ASSERT_FALSE(R.AllocationTimeline.empty());
  const AllocationSample &Last = R.AllocationTimeline.back();
  ASSERT_EQ(Last.Granted.size(), 2u);
  EXPECT_EQ(Last.Granted[1], 0u);
  EXPECT_GT(Last.Granted[0], 0u);

  ChaosInvariantOptions Inv;
  Inv.PlatformThreads = Opts.Contexts;
  Inv.LeaseTtlSeconds = Opts.Arbiter.LeaseTtlSeconds;
  const ChaosInvariantReport Report =
      checkChaosInvariants(R.ProtocolJournal, Inv);
  EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                   ? ""
                                   : Report.Violations.front().Message);
}

TEST(ColocationSim, OutageRunCompletesAndKeepsTheJournalInvariant) {
  for (const ArbiterOutage::RestartMode Mode :
       {ArbiterOutage::RestartMode::Snapshot,
        ArbiterOutage::RestartMode::WarmTrace}) {
    ColocationSimOptions Opts = quickOptions(ColocationPolicy::Arbiter);
    Opts.DurationSeconds = 48.0;
    Opts.Arbiter.EpochSeconds = 2.0;
    Opts.Arbiter.LeaseTtlSeconds = 5.0;
    Opts.Outage.KillSeconds = 16.0;
    Opts.Outage.RestartSeconds = 22.0;
    Opts.Outage.Mode = Mode;
    ColocationSim Sim({frontendTenant(), batchTenant()}, Opts);
    const ColocationSimResult R = Sim.run();

    // Both tenants keep completing work through the outage.
    ASSERT_EQ(R.Tenants.size(), 2u);
    EXPECT_GT(R.Tenants[0].Completed, 0u);
    EXPECT_GT(R.Tenants[1].Completed, 0u);

    ChaosInvariantOptions Inv;
    Inv.PlatformThreads = Opts.Contexts;
    Inv.LeaseTtlSeconds = Opts.Arbiter.LeaseTtlSeconds;
    const ChaosInvariantReport Report =
        checkChaosInvariants(R.ProtocolJournal, Inv);
    EXPECT_TRUE(Report.ok())
        << "mode " << static_cast<int>(Mode) << ": "
        << (Report.Violations.empty() ? ""
                                      : Report.Violations.front().Message);
  }
}

//===----------------------------------------------------------------------===//
// Golden result: the full ColocationSimResult of three pinned runs
//===----------------------------------------------------------------------===//

/// A nine-tenant platform (three latency frontends, six batch pipelines)
/// with one tenant of each misbehavior: a control-plane partition, a
/// crash during the arbiter outage, a byzantine sampler with a rewound
/// clock, and an envelope violator.
std::vector<ColocationTenantSpec> chaosPlatformTenants() {
  std::vector<ColocationTenantSpec> Tenants;
  for (int F = 0; F != 3; ++F) {
    ColocationTenantSpec T = frontendTenant();
    T.Tenant.Name = T.Nest.Name = "frontend" + std::to_string(F);
    T.ArrivalRate = 20.0 + 5.0 * F;
    T.ArrivalSchedule = LoadTrace();
    Tenants.push_back(std::move(T));
  }
  const char *Names[6] = {"batch", "miner", "indexer", "etl", "ocr", "rank"};
  for (int B = 0; B != 6; ++B) {
    ColocationTenantSpec T = batchTenant();
    T.Tenant.Name = T.Pipeline.Name = Names[B];
    T.ArrivalRate = 40.0 + 15.0 * B;
    Tenants.push_back(std::move(T));
  }
  Tenants[0].Misbehavior.SilentFromSeconds = 14.0;
  Tenants[0].Misbehavior.SilentUntilSeconds = 24.0;
  Tenants[3].Misbehavior.CrashSeconds = 19.3;
  Tenants[4].Misbehavior.ByzantineFromSeconds = 10.0;
  Tenants[4].Misbehavior.NonMonotoneClock = true;
  Tenants[5].Misbehavior.EnvelopeViolationThreads = 3;
  return Tenants;
}

std::string num(double D) {
  std::string Out;
  JsonValue::appendNumber(Out, D);
  return Out;
}

/// Serializes every field of \p R, doubles at round-trip precision, plus
/// the trace sink's records when the run had one.
void writeResult(std::ostream &OS, const std::string &Label,
                 const ColocationSimResult &R,
                 const std::vector<TraceRecord> *Trace) {
  OS << "== run " << Label << "\n";
  for (const TenantStats &T : R.Tenants)
    OS << "tenant " << T.Name << " latency_sensitive=" << T.LatencySensitive
       << " weight=" << num(T.Weight) << " slo=" << num(T.SloSeconds)
       << " arrived=" << T.Arrived << " completed=" << T.Completed
       << " shed=" << T.Shed << " slo_hits=" << T.SloHits
       << " lease_changes=" << T.LeaseChanges
       << " thread_seconds=" << num(T.ThreadSeconds)
       << " responses=" << T.Responses.count()
       << " mean=" << num(T.Responses.meanResponseTime())
       << " exec=" << num(T.Responses.meanExecTime())
       << " wait=" << num(T.Responses.meanWaitTime())
       << " p95=" << num(T.Responses.responsePercentile(0.95))
       << " max=" << num(T.Responses.maxResponseTime())
       << " throughput=" << num(T.Responses.throughput())
       << " attainment=" << num(T.goalAttainment()) << "\n";
  OS << "fairness aggregate=" << num(R.Fairness.AggregateAttainment)
     << " min=" << num(R.Fairness.MinAttainment)
     << " jain=" << num(R.Fairness.JainIndex) << "\n";
  OS << "lease_changes " << R.LeaseChanges << "\n";
  OS << "simulated_events " << R.SimulatedEvents << "\n";
  OS << "duration " << num(R.DurationSeconds) << "\n";
  for (const AllocationSample &A : R.AllocationTimeline) {
    OS << "alloc " << num(A.Time);
    for (unsigned G : A.Granted)
      OS << ' ' << G;
    OS << "\n";
  }
  OS << "journal " << R.ProtocolJournal.size() << " records\n";
  writeTraceJsonl(R.ProtocolJournal, OS);
  if (Trace) {
    OS << "trace " << Trace->size() << " records\n";
    writeTraceJsonl(*Trace, OS);
  }
}

/// The three pinned runs: the default two-tenant Arbiter scenario (with
/// its trace sink), the static split of the same tenants, and the chaos
/// platform under an arbiter outage with injected heartbeat drops.
std::string goldenRuns() {
  std::ostringstream OS;
  {
    Tracer Trace(1 << 16);
    ColocationSimOptions Opts = quickOptions(ColocationPolicy::Arbiter);
    Opts.TraceSink = &Trace;
    const ColocationSimResult R =
        ColocationSim({frontendTenant(), batchTenant()}, Opts).run();
    const std::vector<TraceRecord> Records = Trace.drain();
    writeResult(OS, "arbiter", R, &Records);
  }
  writeResult(OS, "static-split", runPolicy(ColocationPolicy::StaticSplit),
              nullptr);
  {
    ColocationSimOptions Opts = quickOptions(ColocationPolicy::Arbiter);
    Opts.Contexts = 32;
    Opts.DurationSeconds = 40.0;
    Opts.Arbiter.EpochSeconds = 2.0;
    Opts.Arbiter.LeaseTtlSeconds = 5.0;
    Opts.Outage.KillSeconds = 16.0;
    Opts.Outage.RestartSeconds = 22.0;
    Opts.Outage.Mode = ArbiterOutage::RestartMode::WarmTrace;
    FaultPlan Plan;
    Plan.HeartbeatDropProbability = 0.2;
    FaultInjector Faults(Plan, Opts.Seed);
    Opts.Faults = &Faults;
    writeResult(OS, "outage-heartbeat-drops",
                ColocationSim(chaosPlatformTenants(), Opts).run(), nullptr);
  }
  return OS.str();
}

/// Byte-for-byte pin of the simulator's output. Set DOPE_REGEN_GOLDEN=1
/// (the trace-regen target does) to rewrite the golden instead.
TEST(ColocationSim, ResultsMatchGolden) {
  const std::string Path =
      std::string(DOPE_GOLDEN_DIR) + "/colocation-sim.results.txt";
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
      << "ColocationSim output diverged from the golden (intentional "
         "change? regenerate with the trace-regen target and review the "
         "diff)";
}

} // namespace
