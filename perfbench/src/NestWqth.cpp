//===- perfbench/src/NestWqth.cpp - nest-wqth workload --------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline experiment (fig. 11) as a request stream: each
/// request is one NestServerSim run of the x264 model under WQT-H at load
/// factor 0.6 with its own seed, tracing off. Mechanism decisions are a
/// large share of the time here, and the Trace layer does no work.
///
//===----------------------------------------------------------------------===//

#include "TimedMechanism.h"
#include "Workloads.h"

#include "apps/NestApps.h"
#include "mechanisms/WqtH.h"
#include "sim/NestServerSim.h"

#include <string>

using namespace dope;
using namespace perfbench;

namespace {

constexpr unsigned Contexts = 24;
constexpr double LoadFactor = 0.6;
constexpr uint64_t TransactionsPerRequest = 1000;
/// Requests are near-equal work, so a slow one is a disturbed moment of
/// the host: short latency windows, outvoted (windowPercentile).
constexpr double TailSamples = 2;

/// What one request produced; equal digests mean identical runs.
struct NestDigest {
  uint64_t Completed = 0;
  uint64_t Reconfigurations = 0;
  double ResponseP50 = 0.0;
  double ResponseP99 = 0.0;
  double TotalSeconds = 0.0;
  bool operator==(const NestDigest &) const = default;
};

NestServerSim makeSim(const NestAppBundle &App, uint64_t Seed) {
  NestSimOptions Opts;
  Opts.Contexts = Contexts;
  Opts.LoadFactor = LoadFactor;
  Opts.NumTransactions = TransactionsPerRequest;
  Opts.Seed = Seed;
  return NestServerSim(App.Model, Opts);
}

/// Runs one request; \p Log, when set, routes decisions through the timing
/// decorator.
NestDigest runRequest(const NestAppBundle &App, uint64_t Seed,
                      DecisionLog *Log) {
  NestServerSim Sim = makeSim(App, Seed);
  std::unique_ptr<Mechanism> Mech = std::make_unique<WqtHMechanism>(App.WqtH);
  if (Log)
    Mech = std::make_unique<TimedMechanism>(std::move(Mech), *Log);
  const NestSimResult R = Sim.run(Mech.get(), Contexts, 1);
  return {R.Stats.count(), R.Reconfigurations,
          R.Stats.responsePercentile(0.50), R.Stats.responsePercentile(0.99),
          R.TotalSeconds};
}

/// Counts every transaction of \p Digests and fails the incomplete ones.
uint64_t checkCompleted(const std::vector<NestDigest> &Digests, Outcome &Out) {
  uint64_t Verified = 0;
  for (size_t I = 0; I != Digests.size(); ++I) {
    const uint64_t Done = Digests[I].Completed;
    Out.count(TransactionsPerRequest, TransactionsPerRequest - std::min(Done, TransactionsPerRequest));
    if (Done != TransactionsPerRequest)
      Out.fail("nest-wqth: request " + std::to_string(I) + " completed " +
               std::to_string(Done) + " transactions");
    else
      Verified += Done;
  }
  return Verified;
}

} // namespace

void perfbench::runNestWqth(const RunArgs &Args, Outcome &Out) {
  const NestAppBundle App = makeX264App();
  auto Request = [&](std::vector<NestDigest> &Digests, DecisionLog *Log) {
    return [&, Log](size_t I) {
      Digests.push_back(runRequest(App, requestSeed(Args.Seed, I), Log));
    };
  };

  if (!Args.Trace) {
    SetupSampler Setup(100, [] {
      const NestAppBundle Model = makeX264App();
      NestServerSim Sim = makeSim(Model, 1);
      WqtHMechanism Mech(Model.WqtH);
    });
    ReferenceSpeed Ref;
    std::vector<NestDigest> Digests;
    const std::vector<RequestTime> Times =
        runForSeconds(Args.Seconds, Ref, Request(Digests, nullptr),
                      [&] { Setup(Ref); });
    const uint64_t Verified = checkCompleted(Digests, Out);
    // Determinism: the first request again, same seed, same result.
    if (!(runRequest(App, requestSeed(Args.Seed, 0), nullptr) == Digests[0])) {
      Out.count(0, TransactionsPerRequest);
      Out.fail("nest-wqth: two runs with the same seed differ");
    }
    setSimulatedEndToEnd(
        Out, Times, Ref,
        std::vector<double>(Times.size(), double(TransactionsPerRequest)),
        static_cast<double>(Verified), Setup.seconds(Ref), TailSamples);
    return;
  }

  // Traced run: each request unwrapped, then again through the timing
  // decorator (interleaved, so machine drift cancels in the overhead);
  // the two must decide identically.
  std::vector<NestDigest> Plain, Timed;
  DecisionLog Log;
  ReferenceSpeed Ref;
  double PlainWall = 0.0, TimedWall = 0.0;
  runForSeconds(Args.Seconds, Ref, [&](size_t I) {
    SteadyClock::time_point T0 = SteadyClock::now();
    Request(Plain, nullptr)(I);
    PlainWall += secondsSince(T0);
    T0 = SteadyClock::now();
    Request(Timed, &Log)(I);
    TimedWall += secondsSince(T0);
  });
  checkCompleted(Timed, Out);
  for (size_t I = 0; I != Plain.size(); ++I)
    if (!(Plain[I] == Timed[I])) {
      Out.count(0, TransactionsPerRequest);
      Out.fail("nest-wqth: wrapped and unwrapped request " +
               std::to_string(I) + " differ");
    }

  const double Requests = static_cast<double>(Plain.size());
  setMechanismMetrics(Out, Log, Requests, TimedWall);
  Out.set("sim.self_s", (TimedWall - Log.BusySeconds) / Requests);
  Out.set("sim.decisions_per_item",
          static_cast<double>(Log.Calls) /
              (Requests * static_cast<double>(TransactionsPerRequest)));
  Out.set("bench.timer_overhead_frac", TimedWall / PlainWall - 1.0);
  Out.set("bench.ref_kernel_ms", Ref.kernelSeconds() * 1e3);
}
