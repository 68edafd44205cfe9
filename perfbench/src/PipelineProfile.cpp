//===- perfbench/src/PipelineProfile.cpp - pipeline-profile workload ------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `dope_whatif profile` flow as a request stream. One request
/// profiles one PipelineSim run of the ferret model under FDP in five
/// steps: the simulation with task instances traced, Tracer::drain,
/// writeTraceJsonl into memory, readTraceJsonl plus TaskDag::build, and
/// computeCriticalPath. Writing and reading traces dominate, so the
/// workload both writes and reads the Trace layer.
///
//===----------------------------------------------------------------------===//

#include "TimedMechanism.h"
#include "Workloads.h"

#include "analysis/CriticalPath.h"
#include "analysis/TaskDag.h"
#include "apps/PipelineApps.h"
#include "mechanisms/Fdp.h"
#include "sim/PipelineSim.h"
#include "support/Trace.h"

#include <sstream>
#include <string>
#include <thread>

using namespace dope;
using namespace perfbench;

namespace {

constexpr unsigned Contexts = 24;
constexpr uint64_t ItemsPerRequest = 250;
/// Requests are near-equal work, so a slow one is a disturbed moment of
/// the host: short latency windows, outvoted (windowPercentile).
constexpr double TailSamples = 2;
/// Per-thread trace ring: far above the ~24 records an item produces, so
/// any drop is a defect the check reports, not a sizing artifact.
constexpr size_t TraceCapacity = 64 * ItemsPerRequest;

/// What one profile produced; equal digests mean identical runs.
struct ProfileDigest {
  uint64_t Items = 0;
  uint64_t Reconfigurations = 0;
  uint64_t Records = 0;
  uint64_t Dropped = 0;
  uint64_t ReadBack = 0;
  uint64_t JsonlBytes = 0;
  uint64_t DagInstances = 0;
  uint64_t DagCompleted = 0;
  double SpanSeconds = 0.0;
  double WorkSeconds = 0.0;
  bool operator==(const ProfileDigest &) const = default;
};

/// Wall seconds of each step of one traced profile.
struct StepSeconds {
  double Sim = 0.0, Drain = 0.0, Export = 0.0, Read = 0.0, Build = 0.0,
         Critical = 0.0;
};

PipelineSimOptions simOptions(uint64_t Seed, Tracer *Sink) {
  PipelineSimOptions Opts;
  Opts.Contexts = Contexts;
  Opts.Seed = Seed;
  Opts.NumItems = ItemsPerRequest;
  Opts.TraceSink = Sink;
  Opts.TraceTaskInstances = Sink != nullptr;
  return Opts;
}

std::unique_ptr<Mechanism> makeFdp(DecisionLog *Log) {
  std::unique_ptr<Mechanism> Mech = std::make_unique<FdpMechanism>();
  if (Log)
    Mech = std::make_unique<TimedMechanism>(std::move(Mech), *Log);
  return Mech;
}

/// The five profile steps. \p Steps, when set, receives each step's wall
/// time (traced run only); \p Log times the mechanism.
ProfileDigest profile(const PipelineAppModel &App, uint64_t Seed,
                      DecisionLog *Log, StepSeconds *Steps) {
  auto Now = [Steps] {
    return Steps ? SteadyClock::now() : SteadyClock::time_point();
  };
  ProfileDigest D;
  Tracer Trace(TraceCapacity);
  PipelineSim Sim(App, simOptions(Seed, &Trace));
  std::unique_ptr<Mechanism> Mech = makeFdp(Log);

  const SteadyClock::time_point T0 = Now();
  const PipelineSimResult R = Sim.run(Mech.get());
  const SteadyClock::time_point T1 = Now();
  std::vector<TraceRecord> Records = Trace.drain();
  const SteadyClock::time_point T2 = Now();
  std::ostringstream OS;
  writeTraceJsonl(Records, OS);
  std::string Text = std::move(OS).str();
  const SteadyClock::time_point T3 = Now();
  D.JsonlBytes = Text.size();
  std::istringstream IS(std::move(Text));
  std::optional<std::vector<TraceRecord>> Back = readTraceJsonl(IS);
  const SteadyClock::time_point T4 = Now();
  D.ReadBack = Back ? Back->size() : 0;
  const TaskDag Dag = TaskDag::build(Back ? std::move(*Back)
                                          : std::vector<TraceRecord>());
  const SteadyClock::time_point T5 = Now();
  const CriticalPathProfile Profile = computeCriticalPath(Dag);
  const SteadyClock::time_point T6 = Now();

  if (Steps)
    *Steps = {secondsBetween(T0, T1), secondsBetween(T1, T2),
              secondsBetween(T2, T3), secondsBetween(T3, T4),
              secondsBetween(T4, T5), secondsBetween(T5, T6)};
  D.Items = R.ItemsCompleted;
  D.Reconfigurations = R.Reconfigurations;
  D.Records = Records.size();
  D.Dropped = Trace.droppedRecords();
  D.DagInstances = Dag.size();
  D.DagCompleted = Dag.completedCount();
  D.SpanSeconds = Profile.SpanSeconds;
  D.WorkSeconds = Profile.TotalWorkSeconds;
  return D;
}

/// profile() on a thread of its own, as one `dope_whatif profile` process
/// runs it. Tracer keeps a thread-local slot for every tracer a thread has
/// recorded into and never prunes them (support/Trace.cpp,
/// Tracer::buffer), so profiles sharing one long-lived thread would slow
/// down with every request before them.
ProfileDigest profileOnFreshThread(const PipelineAppModel &App, uint64_t Seed,
                                   DecisionLog *Log, StepSeconds *Steps) {
  ProfileDigest D;
  std::thread Worker([&] { D = profile(App, Seed, Log, Steps); });
  Worker.join();
  return D;
}

/// Counts every item of \p Digests; a profile that lost items, dropped
/// trace records, failed to read back, or built the wrong DAG fails all
/// of its items.
uint64_t checkProfiles(const std::vector<ProfileDigest> &Digests,
                       size_t Stages, Outcome &Out) {
  uint64_t Verified = 0;
  for (size_t I = 0; I != Digests.size(); ++I) {
    const ProfileDigest &D = Digests[I];
    std::string Why;
    if (D.Items != ItemsPerRequest)
      Why = "completed " + std::to_string(D.Items) + " items";
    else if (D.Dropped != 0)
      Why = "dropped " + std::to_string(D.Dropped) + " trace records";
    else if (D.ReadBack != D.Records)
      Why = "read back " + std::to_string(D.ReadBack) + " of " +
            std::to_string(D.Records) + " records";
    else if (D.DagInstances != Stages * ItemsPerRequest ||
             D.DagCompleted != D.DagInstances)
      Why = "DAG has " + std::to_string(D.DagInstances) + " instances (" +
            std::to_string(D.DagCompleted) + " completed)";
    Out.count(ItemsPerRequest, Why.empty() ? 0 : ItemsPerRequest);
    if (Why.empty())
      Verified += ItemsPerRequest;
    else
      Out.fail("pipeline-profile: request " + std::to_string(I) + " " + Why);
  }
  return Verified;
}

} // namespace

void perfbench::runPipelineProfile(const RunArgs &Args, Outcome &Out) {
  const PipelineAppModel App = makeFerretApp();
  const size_t Stages = App.Stages.size();

  if (!Args.Trace) {
    SetupSampler Setup(100, [] {
      const PipelineAppModel Model = makeFerretApp();
      Tracer Trace(TraceCapacity);
      PipelineSim Sim(Model, simOptions(1, &Trace));
      FdpMechanism Mech;
    });
    ReferenceSpeed Ref;
    std::vector<ProfileDigest> Digests;
    const std::vector<RequestTime> Times = runForSeconds(
        Args.Seconds, Ref,
        [&](size_t I) {
          Digests.push_back(profileOnFreshThread(
              App, requestSeed(Args.Seed, I), nullptr, nullptr));
        },
        [&] { Setup(Ref); });
    const uint64_t Verified = checkProfiles(Digests, Stages, Out);
    setSimulatedEndToEnd(
        Out, Times, Ref,
        std::vector<double>(Times.size(), double(ItemsPerRequest)),
        static_cast<double>(Verified), Setup.seconds(Ref), TailSamples);
    return;
  }

  // Traced run, per request: the plain profile, an untraced twin
  // simulation, and the same profile with every step timed and the
  // mechanism wrapped. Interleaving keeps machine drift out of the
  // comparisons; wrapped and plain profiles must agree exactly.
  std::vector<ProfileDigest> Plain, Timed;
  DecisionLog Log, TwinLog;
  std::vector<double> SelfSeconds, DrainSeconds, BuildSeconds,
      CriticalSeconds;
  double PlainWall = 0.0, TimedWall = 0.0, TwinTotal = 0.0,
         TracedSimSeconds = 0.0, ExportSeconds = 0.0, ReadSeconds = 0.0;
  ReferenceSpeed Ref;
  runForSeconds(Args.Seconds, Ref, [&](size_t I) {
    const uint64_t Seed = requestSeed(Args.Seed, I);
    SteadyClock::time_point T0 = SteadyClock::now();
    Plain.push_back(profileOnFreshThread(App, Seed, nullptr, nullptr));
    PlainWall += secondsSince(T0);

    PipelineSim Twin(App, simOptions(Seed, nullptr));
    std::unique_ptr<Mechanism> Mech = makeFdp(&TwinLog);
    const double Busy = TwinLog.BusySeconds;
    T0 = SteadyClock::now();
    Twin.run(Mech.get());
    const double Seconds = secondsSince(T0);
    TwinTotal += Seconds;
    SelfSeconds.push_back(Seconds - (TwinLog.BusySeconds - Busy));

    StepSeconds Steps;
    T0 = SteadyClock::now();
    Timed.push_back(profileOnFreshThread(App, Seed, &Log, &Steps));
    TimedWall += secondsSince(T0);
    TracedSimSeconds += Steps.Sim;
    DrainSeconds.push_back(Steps.Drain);
    ExportSeconds += Steps.Export;
    ReadSeconds += Steps.Read;
    BuildSeconds.push_back(Steps.Build);
    CriticalSeconds.push_back(Steps.Critical);
  });

  checkProfiles(Timed, Stages, Out);
  for (size_t I = 0; I != Plain.size(); ++I)
    if (!(Plain[I] == Timed[I])) {
      Out.count(0, ItemsPerRequest);
      Out.fail("pipeline-profile: wrapped and unwrapped request " +
               std::to_string(I) + " differ");
    }

  const double Requests = static_cast<double>(Timed.size());
  double Records = 0.0, Dropped = 0.0, Bytes = 0.0;
  for (const ProfileDigest &D : Timed) {
    Records += static_cast<double>(D.Records);
    Dropped += static_cast<double>(D.Dropped);
    Bytes += static_cast<double>(D.JsonlBytes);
  }
  const double TraceCost = TracedSimSeconds - TwinTotal;

  setMechanismMetrics(Out, Log, Requests, TimedWall);
  Out.set("sim.self_s", median(SelfSeconds));
  Out.set("sim.decisions_per_item",
          static_cast<double>(Log.Calls) /
              (Requests * static_cast<double>(ItemsPerRequest)));
  Out.set("support.trace_records", Records / Requests);
  Out.set("support.trace_dropped", Dropped / Requests);
  Out.set("support.trace_record_ns", Records > 0.0 ? TraceCost / Records * 1e9 : 0.0);
  Out.set("support.trace_overhead_frac", TraceCost / TwinTotal);
  Out.set("support.trace_drain_s", median(DrainSeconds));
  Out.set("support.trace_export_ns_per_record",
          Records > 0.0 ? ExportSeconds / Records * 1e9 : 0.0);
  Out.set("support.trace_jsonl_bytes", Bytes / Requests);
  Out.set("support.trace_read_ns_per_record",
          Records > 0.0 ? ReadSeconds / Records * 1e9 : 0.0);
  Out.set("analysis.dag_build_s", median(BuildSeconds));
  Out.set("analysis.critical_path_s", median(CriticalSeconds));
  Out.set("bench.timer_overhead_frac", TimedWall / PlainWall - 1.0);
  Out.set("bench.ref_kernel_ms", Ref.kernelSeconds() * 1e3);
}
