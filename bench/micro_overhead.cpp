//===- bench/micro_overhead.cpp - Monitoring overhead (<1% claim) ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the Sec. 8.2 claim: "The performance overhead (compared to
/// the Pthreads parallelizations) of run-time monitoring of workload and
/// platform characteristics is less than 1%, even for monitoring each
/// and every instance of all the parallel tasks."
///
/// Four native variants process the same work-item stream:
///   * pthreads   — a plain std::thread worker loop (no DoPE),
///   * unmonitored— the DoPE executive, functor without begin/end,
///   * monitored  — the DoPE executive, begin/end around every instance
///                  plus an active LoadCB,
///   * traced     — monitored plus a structured Tracer recording every
///                  begin/end/decision into per-thread rings.
///
/// The harness reports median wall times over several interleaved trials
/// and checks that full monitoring costs under 2% (the paper's <1% is
/// measured on idle dedicated hardware; per-replica batched exec windows
/// put this harness at ~0-1%, and the threshold allows CI noise) and
/// that tracing adds less than 5% on top of the monitored executive.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "apps/NativeKernels.h"
#include "core/Dope.h"
#include "support/Clock.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

using namespace dope;
using namespace dope::bench;

namespace {

constexpr uint64_t WorkPerItem = 20000;

double runPthreadsBaseline(uint64_t Items, unsigned Threads) {
  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Sink{0};
  const double Start = monotonicSeconds();
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      for (;;) {
        const uint64_t I = Next.fetch_add(1);
        if (I >= Items)
          return;
        Sink.fetch_add(hashWork(I, WorkPerItem), std::memory_order_relaxed);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  return monotonicSeconds() - Start;
}

double runDope(uint64_t Items, unsigned Threads, bool Monitored,
               bool Traced = false) {
  TaskGraph Graph;
  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Sink{0};

  TaskFn Fn = [&, Monitored](TaskRuntime &RT) {
    if (Monitored && RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    const uint64_t I = Next.fetch_add(1);
    if (I >= Items)
      return TaskStatus::Finished;
    Sink.fetch_add(hashWork(I, WorkPerItem), std::memory_order_relaxed);
    if (Monitored && RT.end() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    return TaskStatus::Executing;
  };
  LoadFn Load;
  if (Monitored)
    Load = [&] {
      return static_cast<double>(Items - std::min(Items, Next.load()));
    };
  Task *Work = Graph.createTask("work", Fn, Load, Graph.parDescriptor());
  ParDescriptor *Root = Graph.createRegion({Work});

  DopeOptions Opts;
  Opts.MaxThreads = Threads;
  RegionConfig Config;
  TaskConfig TC;
  TC.Extent = Threads;
  Config.Tasks.push_back(TC);
  Opts.InitialConfig = Config;

  // The tracer outlives the executive; rings are sized so steady-state
  // appends overwrite (the worst case for the hot path).
  Tracer Trace(16384);
  if (Traced)
    Opts.Trace = &Trace;

  const double Start = monotonicSeconds();
  std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
  D->wait();
  const double Elapsed = monotonicSeconds() - Start;
  D.reset();
  return Elapsed;
}

double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  return Values[Values.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options("Monitoring overhead of the native DoPE executive "
                       "(paper Sec. 8.2: < 1%)");
  addCommonOptions(Options);
  Options.addInt("items", 20000, "work items per trial");
  Options.addInt("threads", 2, "worker threads (native run)");
  Options.addInt("trials", 5, "trials per variant (median reported)");
  parseOrExit(Options, Argc, Argv);
  const bool Csv = Options.getFlag("csv");

  uint64_t Items = static_cast<uint64_t>(Options.getInt("items"));
  const unsigned Threads = static_cast<unsigned>(Options.getInt("threads"));
  int Trials = static_cast<int>(Options.getInt("trials"));
  if (Options.getFlag("quick")) {
    Items = 6000;
    Trials = 3;
  }

  std::vector<double> Pthreads, Unmonitored, Monitored, Traced;
  // Interleave trials so slow-machine noise hits all variants equally.
  for (int T = 0; T != Trials; ++T) {
    Pthreads.push_back(runPthreadsBaseline(Items, Threads));
    Unmonitored.push_back(runDope(Items, Threads, /*Monitored=*/false));
    Monitored.push_back(runDope(Items, Threads, /*Monitored=*/true));
    Traced.push_back(
        runDope(Items, Threads, /*Monitored=*/true, /*Traced=*/true));
  }

  const double P = median(Pthreads);
  const double U = median(Unmonitored);
  const double M = median(Monitored);
  const double R = median(Traced);

  Table T({"variant", "median seconds", "vs pthreads"});
  T.addRow({"pthreads", Table::formatDouble(P, 4), "1.000"});
  T.addRow({"dope (unmonitored)", Table::formatDouble(U, 4),
            Table::formatDouble(U / P, 3)});
  T.addRow({"dope (full monitoring)", Table::formatDouble(M, 4),
            Table::formatDouble(M / P, 3)});
  T.addRow({"dope (monitoring + tracing)", Table::formatDouble(R, 4),
            Table::formatDouble(R / P, 3)});
  emitTable("Monitoring overhead, " + std::to_string(Items) + " items x " +
                std::to_string(WorkPerItem) + " mix-iterations",
            T, Csv);

  const double MonitoringOverhead = (M - U) / U;
  const double TracingOverhead = (R - M) / M;
  std::printf("\nmonitoring overhead vs unmonitored executive: %.2f%%\n",
              MonitoringOverhead * 100.0);
  std::printf("tracing overhead vs monitored executive: %.2f%%\n",
              TracingOverhead * 100.0);
  bool Ok = true;
  Ok &= checkShape(MonitoringOverhead < 0.02,
                   "per-instance monitoring costs under 2% (paper: < 1% on "
                   "dedicated hardware; batched exec windows measure "
                   "~0-1% here)");
  Ok &= checkShape(M / P < 1.15,
                   "the full executive tracks the raw Pthreads loop");
  Ok &= checkShape(TracingOverhead < 0.05,
                   "structured tracing adds < 5% over the monitored "
                   "executive");
  return Ok ? 0 : 1;
}
