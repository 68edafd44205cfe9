//===- bench/ext_chaos.cpp - Lease protocol chaos soak ---------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Robustness acceptance for the hardened lease protocol: every party of
/// the arbiter<->tenant contract misbehaves or dies, and the protocol's
/// invariants must hold anyway.
///
/// Three experiments:
///
///   1. Warm restart — the arbiter is killed mid-run and restarted from
///      a snapshot or from the host's protocol journal; its allocation
///      must re-converge to within 5% of the uninterrupted run's within
///      1 rebalance round from a snapshot and 3 from the journal (a cold
///      restart is run for contrast).
///
///   2. Containment — one byzantine reporter and one envelope violator
///      share the platform with two honest tenants; the honest tenants
///      must keep at least 90% of their fault-free weighted attainment.
///
///   3. Chaos soak — randomized schedules (tenant crashes, silent
///      windows, byzantine clocks, envelope violations, heartbeat loss,
///      arbiter kill/restart in every mode) over many seeds, with the
///      ChaosInvariants checker asserting budget, revoke-before-grant
///      and no-zombie-lease after every decision, and every seed run
///      twice to prove determinism. A failing seed is greedily
///      minimized and printed for replay.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "sim/ChaosInvariants.h"
#include "sim/ColocationSim.h"
#include "sim/FaultInjector.h"
#include "support/Random.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace dope;
using namespace dope::bench;

namespace {

constexpr double EpochSeconds = 2.0;
constexpr double LeaseTtl = 5.0;

/// Latency-sensitive nested-parallel frontend, sized to cruise
/// comfortably at its floor so the honest platform settles into a
/// stable fixed point (recovery is measured as distance from it).
ColocationTenantSpec frontendTenant() {
  ColocationTenantSpec T;
  T.Tenant.Name = "frontend";
  T.Tenant.Goal = TenantGoal::ResponseTime;
  T.Tenant.Weight = 2.0;
  T.Tenant.MinThreads = 4;
  T.Tenant.SloSeconds = 0.5;
  T.Kind = ColocationTenantSpec::AppKind::NestServer;
  T.Nest.Name = "frontend";
  T.Nest.SeqServiceSeconds = 0.05;
  T.Nest.Curve = SpeedupCurve(0.1, 0.2);
  T.ArrivalRate = 30.0;
  return T;
}

/// Throughput-hungry batch pipeline; the name parameterizes clones.
ColocationTenantSpec batchTenant(const std::string &Name,
                                 double ArrivalRate) {
  ColocationTenantSpec T;
  T.Tenant.Name = Name;
  T.Tenant.Goal = TenantGoal::Throughput;
  T.Tenant.Weight = 1.0;
  T.Kind = ColocationTenantSpec::AppKind::Pipeline;
  T.Pipeline.Name = Name;
  T.Pipeline.Stages = {{"decode", true, 0.02, 0.15},
                       {"work", true, 0.1, 0.15},
                       {"sink", true, 0.03, 0.15}};
  T.ArrivalRate = ArrivalRate;
  return T;
}

std::vector<ColocationTenantSpec> platformTenants() {
  return {frontendTenant(), batchTenant("batch", 120.0),
          batchTenant("miner", 80.0), batchTenant("indexer", 60.0)};
}

/// Everything one chaos run varies on top of the honest platform.
struct ChaosSchedule {
  ArbiterOutage Outage;
  double HeartbeatDrop = 0.0;
  std::vector<TenantMisbehavior> Tenant;
};

ColocationSimResult runSchedule(const ChaosSchedule &Schedule,
                                unsigned Contexts, uint64_t Seed,
                                double Duration) {
  std::vector<ColocationTenantSpec> Tenants = platformTenants();
  for (size_t I = 0; I != Tenants.size() && I != Schedule.Tenant.size(); ++I)
    Tenants[I].Misbehavior = Schedule.Tenant[I];

  ColocationSimOptions Opts;
  Opts.Contexts = Contexts;
  Opts.Seed = Seed;
  Opts.DurationSeconds = Duration;
  Opts.StepSeconds = 0.05;
  Opts.WarmupSeconds = 4.0;
  Opts.Policy = ColocationPolicy::Arbiter;
  Opts.Arbiter.EpochSeconds = EpochSeconds;
  Opts.Arbiter.LeaseTtlSeconds = LeaseTtl;
  Opts.Outage = Schedule.Outage;

  FaultPlan Plan;
  Plan.HeartbeatDropProbability = Schedule.HeartbeatDrop;
  FaultInjector Faults(Plan, Seed);
  Opts.Faults = Plan.empty() ? nullptr : &Faults;

  ColocationSim Sim(std::move(Tenants), Opts);
  return Sim.run();
}

ChaosSchedule emptySchedule() {
  ChaosSchedule S;
  S.Tenant.resize(platformTenants().size());
  return S;
}

/// Snap a time onto the epoch grid so outage edges land on rebalance
/// boundaries.
double onEpoch(double T) {
  return std::max(EpochSeconds,
                  std::round(T / EpochSeconds) * EpochSeconds);
}

ChaosSchedule randomSchedule(uint64_t Seed, double Duration) {
  Rng R(Seed ^ 0xc4a05c4a05ULL);
  ChaosSchedule S = emptySchedule();
  if (R.uniform() < 0.7) {
    S.Outage.KillSeconds = onEpoch(Duration * (0.25 + 0.35 * R.uniform()));
    S.Outage.RestartSeconds =
        onEpoch(S.Outage.KillSeconds +
                EpochSeconds * (1.0 + 3.0 * R.uniform()));
    switch (R.uniformInt(3)) {
    case 0:
      S.Outage.Mode = ArbiterOutage::RestartMode::Cold;
      break;
    case 1:
      S.Outage.Mode = ArbiterOutage::RestartMode::Snapshot;
      break;
    default:
      S.Outage.Mode = ArbiterOutage::RestartMode::WarmTrace;
      break;
    }
  }
  if (R.uniform() < 0.5)
    S.HeartbeatDrop = 0.15 * R.uniform();
  for (TenantMisbehavior &M : S.Tenant) {
    const double Roll = R.uniform();
    if (Roll < 0.18) {
      M.CrashSeconds = Duration * (0.2 + 0.5 * R.uniform());
    } else if (Roll < 0.36) {
      M.SilentFromSeconds = Duration * (0.2 + 0.3 * R.uniform());
      M.SilentUntilSeconds =
          M.SilentFromSeconds + Duration * (0.1 + 0.2 * R.uniform());
    } else if (Roll < 0.54) {
      M.ByzantineFromSeconds = Duration * (0.1 + 0.4 * R.uniform());
      M.ReportedRateFactor = 2.0 + 4.0 * R.uniform();
      M.NonMonotoneClock = R.uniform() < 0.5;
    } else if (Roll < 0.68) {
      M.EnvelopeViolationThreads = 1 + static_cast<unsigned>(R.uniformInt(3));
    }
  }
  return S;
}

std::string describeSchedule(const ChaosSchedule &S) {
  std::string Out;
  if (S.Outage.enabled()) {
    Out += "outage[kill=" + Table::formatDouble(S.Outage.KillSeconds, 0) +
           " restart=" + Table::formatDouble(S.Outage.RestartSeconds, 0) +
           " mode=" +
           (S.Outage.Mode == ArbiterOutage::RestartMode::Cold ? "cold"
            : S.Outage.Mode == ArbiterOutage::RestartMode::Snapshot
                ? "snapshot"
                : "warm-trace") +
           "] ";
  }
  if (S.HeartbeatDrop > 0.0)
    Out += "hb-drop=" + Table::formatDouble(S.HeartbeatDrop, 3) + " ";
  for (size_t I = 0; I != S.Tenant.size(); ++I) {
    const TenantMisbehavior &M = S.Tenant[I];
    if (!M.any())
      continue;
    Out += 't';
    Out += std::to_string(I);
    Out += '[';
    if (M.CrashSeconds >= 0.0)
      Out += "crash@" + Table::formatDouble(M.CrashSeconds, 0) + " ";
    if (M.SilentUntilSeconds > M.SilentFromSeconds)
      Out += "silent " + Table::formatDouble(M.SilentFromSeconds, 0) + "-" +
             Table::formatDouble(M.SilentUntilSeconds, 0) + " ";
    if (M.ByzantineFromSeconds >= 0.0)
      Out += std::string("byz@") +
             Table::formatDouble(M.ByzantineFromSeconds, 0) +
             (M.NonMonotoneClock ? " clock" : "") + " ";
    if (M.EnvelopeViolationThreads > 0)
      Out += "viol+" + std::to_string(M.EnvelopeViolationThreads);
    Out += "] ";
  }
  return Out.empty() ? "honest" : Out;
}

bool journalsEqual(const std::vector<TraceRecord> &A,
                   const std::vector<TraceRecord> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Time != B[I].Time || A[I].Kind != B[I].Kind ||
        A[I].Name != B[I].Name || A[I].A != B[I].A || A[I].B != B[I].B ||
        A[I].Detail != B[I].Detail)
      return false;
  return true;
}

struct SeedVerdict {
  bool InvariantsOk = true;
  bool Deterministic = true;
  ChaosInvariantReport Report;
};

SeedVerdict checkSeed(const ChaosSchedule &S, unsigned Contexts,
                      uint64_t Seed, double Duration) {
  SeedVerdict V;
  const ColocationSimResult First = runSchedule(S, Contexts, Seed, Duration);
  ChaosInvariantOptions InvOpts;
  InvOpts.PlatformThreads = Contexts;
  InvOpts.LeaseTtlSeconds = LeaseTtl;
  V.Report = checkChaosInvariants(First.ProtocolJournal, InvOpts);
  V.InvariantsOk = V.Report.ok();
  const ColocationSimResult Again = runSchedule(S, Contexts, Seed, Duration);
  V.Deterministic =
      journalsEqual(First.ProtocolJournal, Again.ProtocolJournal);
  return V;
}

/// Greedy schedule minimization: drop every chaos ingredient that is
/// not needed to reproduce the failure, so the printed repro is small.
ChaosSchedule minimizeSchedule(ChaosSchedule S, unsigned Contexts,
                               uint64_t Seed, double Duration) {
  auto stillFails = [&](const ChaosSchedule &C) {
    const SeedVerdict V = checkSeed(C, Contexts, Seed, Duration);
    return !V.InvariantsOk || !V.Deterministic;
  };
  {
    ChaosSchedule C = S;
    C.Outage = ArbiterOutage();
    if (stillFails(C))
      S = C;
  }
  {
    ChaosSchedule C = S;
    C.HeartbeatDrop = 0.0;
    if (stillFails(C))
      S = C;
  }
  for (size_t I = 0; I != S.Tenant.size(); ++I) {
    if (!S.Tenant[I].any())
      continue;
    ChaosSchedule C = S;
    C.Tenant[I] = TenantMisbehavior();
    if (stillFails(C))
      S = C;
  }
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options(
      "Lease protocol chaos soak: arbiter kill/restart, tenant crashes, "
      "byzantine telemetry and envelope violations under an "
      "invariant-checking harness");
  addCommonOptions(Options);
  Options.addInt("duration", 240, "simulated seconds per run");
  Options.addInt("soak-seeds", 12, "randomized schedules to soak");
  parseOrExit(Options, Argc, Argv);

  const bool Csv = Options.getFlag("csv");
  const bool Quick = Options.getFlag("quick");
  const unsigned Contexts = static_cast<unsigned>(Options.getInt("contexts"));
  const uint64_t Seed = static_cast<uint64_t>(Options.getInt("seed"));
  double Duration = static_cast<double>(Options.getInt("duration"));
  size_t SoakSeeds = static_cast<size_t>(Options.getInt("soak-seeds"));
  if (Quick) {
    Duration = 80.0;
    SoakSeeds = std::min<size_t>(SoakSeeds, 10);
  }
  SoakSeeds = std::max<size_t>(SoakSeeds, 10);

  std::printf("seed=%llu (override with --seed)\n",
              static_cast<unsigned long long>(Seed));

  bool Ok = true;
  ChaosInvariantOptions InvOpts;
  InvOpts.PlatformThreads = Contexts;
  InvOpts.LeaseTtlSeconds = LeaseTtl;

  // ---- 1. Warm restart ---------------------------------------------------
  const ChaosSchedule Honest = emptySchedule();
  const ColocationSimResult Baseline =
      runSchedule(Honest, Contexts, Seed, Duration);
  const double KillAt = onEpoch(0.45 * Duration);
  const double RestartAt = onEpoch(0.55 * Duration);
  // 5% of the platform, at least one thread.
  const unsigned Tolerance = std::max(
      1u, static_cast<unsigned>(std::ceil(0.05 * Contexts)));

  struct RestartRow {
    const char *Mode;
    ArbiterOutage::RestartMode M;
    /// Rounds the mode must re-converge within.
    int MaxRounds;
    RecoveryMetrics R;
  };
  std::vector<RestartRow> Restarts = {
      {"snapshot", ArbiterOutage::RestartMode::Snapshot, 1, {}},
      {"warm-trace", ArbiterOutage::RestartMode::WarmTrace, 3, {}},
      {"cold", ArbiterOutage::RestartMode::Cold, 0, {}},
  };
  for (RestartRow &Row : Restarts) {
    ChaosSchedule S = emptySchedule();
    S.Outage.KillSeconds = KillAt;
    S.Outage.RestartSeconds = RestartAt;
    S.Outage.Mode = Row.M;
    const ColocationSimResult R = runSchedule(S, Contexts, Seed, Duration);
    Row.R = allocationRecovery(Baseline, R, RestartAt, Tolerance);
    const ChaosInvariantReport Inv =
        checkChaosInvariants(R.ProtocolJournal, InvOpts);
    Ok &= checkShape(Inv.ok(), std::string("protocol invariants hold "
                                           "through a ") +
                                   Row.Mode + " restart");
  }

  Table RT({"restart mode", "rounds to recover", "time to recover (s)",
            "final distance"});
  for (const RestartRow &Row : Restarts)
    RT.addRow({Row.Mode,
               Row.R.recovered() ? std::to_string(Row.R.RoundsToRecover)
                                 : "never",
               Row.R.recovered()
                   ? Table::formatDouble(Row.R.TimeToRecoverSeconds, 1)
                   : "-",
               std::to_string(Row.R.FinalDistance)});
  emitTable("Ext. E1: allocation recovery after an arbiter kill at t=" +
                Table::formatDouble(KillAt, 0) + "s, restart at t=" +
                Table::formatDouble(RestartAt, 0) + "s (tolerance " +
                std::to_string(Tolerance) + " threads)",
            RT, Csv);

  for (const RestartRow &Row : Restarts) {
    if (Row.M == ArbiterOutage::RestartMode::Cold)
      continue; // reported for contrast only
    Ok &= checkShape(Row.R.recovered() &&
                         Row.R.RoundsToRecover <= Row.MaxRounds,
                     std::string(Row.Mode) + " restart re-converges within " +
                         std::to_string(Row.MaxRounds) +
                         " rebalance round" + (Row.MaxRounds == 1 ? "" : "s") +
                         " (took " +
                         (Row.R.recovered()
                              ? std::to_string(Row.R.RoundsToRecover)
                              : std::string("never")) +
                         ")");
  }

  // ---- 2. Containment ----------------------------------------------------
  const std::vector<std::string> Compliant = {"frontend", "batch"};
  const double FaultFree = weightedAttainmentOf(Baseline, Compliant);

  ChaosSchedule Abuse = emptySchedule();
  // "miner" turns byzantine: inflated rates and a rewinding clock.
  Abuse.Tenant[2].ByzantineFromSeconds = 0.125 * Duration;
  Abuse.Tenant[2].ReportedRateFactor = 3.0;
  Abuse.Tenant[2].NonMonotoneClock = true;
  // "indexer" violates its envelope by two threads.
  Abuse.Tenant[3].EnvelopeViolationThreads = 2;
  const ColocationSimResult Abused =
      runSchedule(Abuse, Contexts, Seed, Duration);
  const double UnderAbuse = weightedAttainmentOf(Abused, Compliant);
  const double Retained = FaultFree > 0.0 ? UnderAbuse / FaultFree : 1.0;

  Table CT({"run", "compliant weighted attainment", "retained"});
  CT.addRow({"fault-free", Table::formatDouble(FaultFree, 3), "1.000"});
  CT.addRow({"byzantine + violator", Table::formatDouble(UnderAbuse, 3),
             Table::formatDouble(Retained, 3)});
  emitTable("Ext. E2: compliant-tenant attainment under containment", CT,
            Csv);

  Ok &= checkShape(Retained >= 0.9,
                   "compliant tenants retain >= 90% of fault-free weighted "
                   "attainment (" +
                       Table::formatDouble(Retained, 3) + ")");
  {
    const ChaosInvariantReport Inv =
        checkChaosInvariants(Abused.ProtocolJournal, InvOpts);
    Ok &= checkShape(Inv.ok(),
                     "protocol invariants hold under byzantine + violator");
  }

  // ---- 3. Chaos soak -----------------------------------------------------
  size_t SoakFailures = 0;
  for (size_t I = 0; I != SoakSeeds; ++I) {
    const uint64_t SoakSeed = Seed + 1000 + I;
    const ChaosSchedule S = randomSchedule(SoakSeed, Duration);
    const SeedVerdict V = checkSeed(S, Contexts, SoakSeed, Duration);
    if (V.InvariantsOk && V.Deterministic)
      continue;
    ++SoakFailures;
    std::printf("SOAK FAILURE seed=%llu: %s%s\n",
                static_cast<unsigned long long>(SoakSeed),
                V.InvariantsOk ? "" : "invariants violated ",
                V.Deterministic ? "" : "non-deterministic");
    for (const ChaosViolation &Viol : V.Report.Violations)
      std::printf("  [%s] t=%.2f record=%zu %s\n", Viol.Invariant.c_str(),
                  Viol.Time, Viol.RecordIndex, Viol.Message.c_str());
    const ChaosSchedule Min =
        minimizeSchedule(S, Contexts, SoakSeed, Duration);
    std::printf("  minimized schedule: %s\n", describeSchedule(Min).c_str());
  }
  Ok &= checkShape(SoakFailures == 0,
                   "all " + std::to_string(SoakSeeds) +
                       " soak seeds hold every invariant and are "
                       "deterministic per seed");

  return Ok ? 0 : 1;
}
