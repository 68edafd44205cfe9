//===- perfbench/src/Colocation.cpp - colocation-48 workload --------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ColocationSim with 48 tenants under the Arbiter policy, one engine
/// shard, with the tenant mix of perf_suite's shard probe. Each request is
/// one simulated run with its own seed; SimulatedEvents is the work unit.
/// This is the only workload that runs the arbiter layer.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "sim/ChaosInvariants.h"
#include "sim/ColocationSim.h"

#include <string>

using namespace dope;
using namespace perfbench;

namespace {

constexpr unsigned Tenants = 48;
constexpr unsigned Contexts = 2 * Tenants;
constexpr double SimulatedSeconds = 30.0;
constexpr double LeaseTtlSeconds = 5.0;
/// A request's simulated events vary with its seed, so its latency tail
/// comes from the inputs and needs long windows (windowPercentile).
constexpr double TailSamples = 10;

/// One service tenant in three, the rest pipeline batch jobs, with
/// staggered arrival rates (perf_suite's shard-scaling mix).
std::vector<ColocationTenantSpec> tenantMix() {
  std::vector<ColocationTenantSpec> Specs;
  Specs.reserve(Tenants);
  for (unsigned I = 0; I != Tenants; ++I) {
    ColocationTenantSpec T;
    if (I % 3 == 0) {
      T.Tenant.Name = "svc" + std::to_string(I);
      T.Tenant.Goal = TenantGoal::ResponseTime;
      T.Tenant.Weight = 2.0;
      T.Tenant.MinThreads = 1;
      T.Tenant.SloSeconds = 0.5;
      T.Kind = ColocationTenantSpec::AppKind::NestServer;
      T.Nest.Name = T.Tenant.Name;
      T.Nest.SeqServiceSeconds = 0.05;
      T.Nest.Curve = SpeedupCurve(0.1, 0.2);
      T.ArrivalRate = 15.0 + (I % 7);
    } else {
      T.Tenant.Name = "job" + std::to_string(I);
      T.Tenant.Goal = TenantGoal::Throughput;
      T.Tenant.Weight = 1.0;
      T.Kind = ColocationTenantSpec::AppKind::Pipeline;
      T.Pipeline.Name = T.Tenant.Name;
      T.Pipeline.Stages = {{"decode", true, 0.02, 0.15},
                           {"work", true, 0.1, 0.15},
                           {"sink", true, 0.03, 0.15}};
      T.ArrivalRate = 25.0 + 3.0 * (I % 11);
    }
    Specs.push_back(std::move(T));
  }
  return Specs;
}

ColocationSimOptions simOptions(uint64_t Seed) {
  ColocationSimOptions Opts;
  Opts.Contexts = Contexts;
  Opts.Seed = Seed;
  Opts.DurationSeconds = SimulatedSeconds;
  Opts.StepSeconds = 0.05;
  Opts.WarmupSeconds = 4.0;
  Opts.Shards = 1;
  Opts.Policy = ColocationPolicy::Arbiter;
  Opts.Arbiter.EpochSeconds = 2.0;
  Opts.Arbiter.LeaseTtlSeconds = LeaseTtlSeconds;
  return Opts;
}

/// What one request produced; equal digests mean identical runs.
struct ColocationDigest {
  uint64_t Events = 0;
  uint64_t LeaseChanges = 0;
  uint64_t Epochs = 0;
  uint64_t JournalRecords = 0;
  uint64_t Completed = 0;
  bool InvariantsHold = false;
  std::string FirstViolation;
  bool operator==(const ColocationDigest &) const = default;
};

ColocationDigest runRequest(const std::vector<ColocationTenantSpec> &Specs,
                            uint64_t Seed) {
  ColocationSim Sim(Specs, simOptions(Seed));
  const ColocationSimResult R = Sim.run();
  ColocationDigest D;
  D.Events = R.SimulatedEvents;
  D.LeaseChanges = R.LeaseChanges;
  D.Epochs = R.AllocationTimeline.size();
  D.JournalRecords = R.ProtocolJournal.size();
  for (const TenantStats &T : R.Tenants)
    D.Completed += T.Completed;
  ChaosInvariantOptions Check;
  Check.PlatformThreads = Contexts;
  Check.LeaseTtlSeconds = LeaseTtlSeconds;
  const ChaosInvariantReport Report =
      checkChaosInvariants(R.ProtocolJournal, Check);
  D.InvariantsHold = Report.ok();
  if (!Report.ok())
    D.FirstViolation = Report.Violations.front().Invariant + ": " +
                       Report.Violations.front().Message;
  return D;
}

/// Counts the events of \p Digests; a run that broke a lease invariant or
/// simulated nothing fails all of its events.
uint64_t checkRuns(const std::vector<ColocationDigest> &Digests,
                   Outcome &Out) {
  uint64_t Verified = 0;
  for (size_t I = 0; I != Digests.size(); ++I) {
    const ColocationDigest &D = Digests[I];
    const bool Ok = D.InvariantsHold && D.Events > 0 && D.Completed > 0;
    Out.count(D.Events, Ok ? 0 : D.Events);
    if (Ok)
      Verified += D.Events;
    else
      Out.fail("colocation-48: request " + std::to_string(I) +
               (D.InvariantsHold ? " did no work" : " " + D.FirstViolation));
  }
  return Verified;
}

} // namespace

void perfbench::runColocation48(const RunArgs &Args, Outcome &Out) {
  const std::vector<ColocationTenantSpec> Specs = tenantMix();
  auto Request = [&](std::vector<ColocationDigest> &Digests) {
    return [&](size_t I) {
      Digests.push_back(runRequest(Specs, requestSeed(Args.Seed, I)));
    };
  };

  if (!Args.Trace) {
    SetupSampler Setup(100, [] {
      ColocationSim Sim(tenantMix(), simOptions(1));
    });
    ReferenceSpeed Ref;
    std::vector<ColocationDigest> Digests;
    const std::vector<RequestTime> Times = runForSeconds(
        Args.Seconds, Ref, Request(Digests), [&] { Setup(Ref); });
    const uint64_t Verified = checkRuns(Digests, Out);
    // Determinism: the first request again, same seed, same result.
    if (!(runRequest(Specs, requestSeed(Args.Seed, 0)) == Digests[0])) {
      Out.count(0, Digests[0].Events);
      Out.fail("colocation-48: two runs with the same seed differ");
    }
    std::vector<double> Units;
    for (const ColocationDigest &D : Digests)
      Units.push_back(static_cast<double>(D.Events));
    setSimulatedEndToEnd(Out, Times, Ref, Units,
                         static_cast<double>(Verified), Setup.seconds(Ref),
                         TailSamples);
    return;
  }

  // Traced run: each request twice in a row, timed only from outside the
  // simulator; both runs must agree exactly.
  std::vector<ColocationDigest> First, Second;
  ReferenceSpeed Ref;
  double FirstWall = 0.0, Wall = 0.0;
  runForSeconds(Args.Seconds, Ref, [&](size_t I) {
    SteadyClock::time_point T0 = SteadyClock::now();
    Request(First)(I);
    FirstWall += secondsSince(T0);
    T0 = SteadyClock::now();
    Request(Second)(I);
    Wall += secondsSince(T0);
  });
  checkRuns(Second, Out);
  double Events = 0.0, Leases = 0.0, Epochs = 0.0, Journal = 0.0;
  for (size_t I = 0; I != First.size(); ++I) {
    if (!(First[I] == Second[I])) {
      Out.count(0, Second[I].Events);
      Out.fail("colocation-48: repeated request " + std::to_string(I) +
               " differs");
    }
    Events += static_cast<double>(Second[I].Events);
    Leases += static_cast<double>(Second[I].LeaseChanges);
    Epochs += static_cast<double>(Second[I].Epochs);
    Journal += static_cast<double>(Second[I].JournalRecords);
  }
  const double Requests = static_cast<double>(Second.size());
  Out.set("sim.self_s", Wall / Requests);
  Out.set("sim.events", Events / Requests);
  Out.set("sim.ns_per_event", Wall / Events * 1e9);
  Out.set("arbiter.lease_changes", Leases / Requests);
  Out.set("arbiter.epochs", Epochs / Requests);
  Out.set("arbiter.journal_records", Journal / Requests);
  Out.set("bench.timer_overhead_frac", Wall / FirstWall - 1.0);
  Out.set("bench.ref_kernel_ms", Ref.kernelSeconds() * 1e3);
}
