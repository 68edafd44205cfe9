//===- sim/NestServerSim.cpp - Two-level nest server simulation ------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/NestServerSim.h"

#include "mechanisms/ServerNest.h"

#include "sim/TickLoop.h"
#include "support/RingDeque.h"

#include <cassert>
#include <cmath>
#include <functional>

using namespace dope;

NestServerSim::NestServerSim(NestAppModel App, NestSimOptions Opts)
    : App(std::move(App)), Opts(Opts) {
  assert(this->App.SeqServiceSeconds > 0.0 && "transaction needs work");
  assert(Opts.Contexts >= 1 && "platform needs contexts");
  assert(Opts.LoadFactor > 0.0 && "load factor must be positive");
  buildGraph();
}

void NestServerSim::buildGraph() {
  // The model graph only carries structure; its functors never run.
  TaskFn Dummy = [](TaskRuntime &) { return TaskStatus::Finished; };
  InnerTask = Graph.createTask(App.Name + ".work", Dummy, LoadFn(),
                               Graph.parDescriptor());
  ParDescriptor *InnerRegion = Graph.createRegion({InnerTask});
  OuterTask = Graph.createTask(
      App.Name, Dummy, LoadFn(),
      Graph.createDescriptor(TaskKind::Parallel, {InnerRegion}));
  Root = Graph.createRegion({OuterTask});
}

double NestServerSim::maxThroughput() const {
  return static_cast<double>(Opts.Contexts) / App.SeqServiceSeconds;
}

double NestServerSim::arrivalRate() const {
  return Opts.LoadFactor * maxThroughput();
}

NestSimResult NestServerSim::run(Mechanism *Mech, unsigned InitialOuter,
                                 unsigned InitialInner) {
  assert(InitialOuter >= 1 && InitialInner >= 1 && "extents must be >= 1");
  if (Mech)
    Mech->reset();

  EventQueue Events;
  Rng ArrivalRng(Opts.Seed);
  Rng ServiceRng(Opts.Seed ^ 0x5eedf00dULL);

  NestSimResult Result;
  ControlLoop Loop(*Root, Mech);

  Tracer *Sink = Opts.TraceSink;
  TickLoop Ticks(Events, Sink);

  // Mutable simulation state.
  RegionConfig Config =
      makeServerConfig(*Root, InitialOuter, InitialInner, /*AltIndex=*/0);
  unsigned OuterK = serverOuterExtent(Config);
  unsigned InnerM = serverInnerExtent(Config);

  RingDeque<Job> Queue;
  unsigned ActiveJobs = 0;
  unsigned BusyContexts = 0;
  uint64_t Arrived = 0;
  uint64_t Completed = 0;
  double PausedUntil = 0.0;
  Ema ExecTimeEma(0.25);
  Ema LoadEma(0.25);
  double LastQueueSample = 0.0;

  // Forward declaration pattern for mutually recursive lambdas.
  std::function<void()> TryStart;

  auto ServiceTime = [&](unsigned M) {
    const double Base = App.SeqServiceSeconds / App.Curve.speedup(M);
    const double Jittered = ServiceRng.logNormal(Base, App.ServiceCv);
    // Oversubscription slowdown, based on actually busy contexts
    // (statics may violate k*m <= C; adaptive configs never do).
    const double Ratio = static_cast<double>(BusyContexts) /
                         static_cast<double>(Opts.Contexts);
    if (Ratio <= 1.0)
      return Jittered;
    return Jittered *
           std::pow(Ratio, 1.0 + Opts.OversubscribePenalty);
  };

  auto CompleteJob = [&](const Job &J, double CompletionTime) {
    ++Completed;
    if (Sink && Opts.TraceTaskInstances)
      Sink->recordAt(CompletionTime, TraceKind::TaskEnd, OuterTask->name(),
                     static_cast<double>(J.Id),
                     CompletionTime - J.StartTime);
    if (Completed > Opts.WarmupTransactions)
      Result.Stats.recordTransaction(J.ArrivalTime, J.StartTime,
                                     CompletionTime);
    ExecTimeEma.addSample(CompletionTime - J.StartTime);
    assert(ActiveJobs > 0 && "completion without active job");
    --ActiveJobs;
    BusyContexts -= std::min(BusyContexts, J.InnerExtent);
    TryStart();
  };

  TryStart = [&]() {
    const double Now = Events.now();
    if (Now < PausedUntil)
      return;
    // Admission is context-based: a transaction starts as soon as its
    // inner extent fits in the free hardware contexts. This matches the
    // executive's thread-budget semantics and makes mode transitions
    // gradual: in-flight transactions finish under their old extent
    // while new ones already start under the new one. Deliberately
    // oversubscribed static configurations (k*m > C) fall back to
    // job-slot admission and pay the contention penalty in ServiceTime.
    const bool Oversubscribed =
        static_cast<uint64_t>(OuterK) * InnerM > Opts.Contexts;
    for (;;) {
      if (Queue.empty())
        break;
      if (Oversubscribed) {
        if (ActiveJobs >= OuterK)
          break;
      } else if (BusyContexts + InnerM > Opts.Contexts) {
        break;
      }
      Job J = Queue.front();
      Queue.pop_front();
      J.StartTime = Now;
      J.InnerExtent = InnerM;
      if (Sink && Opts.TraceTaskInstances)
        Sink->recordAt(Now, TraceKind::TaskBegin, OuterTask->name(),
                       static_cast<double>(J.Id));
      ++ActiveJobs;
      BusyContexts += InnerM;
      const double Duration = ServiceTime(InnerM);
      // J.StartTime is Now; capturing Now too would outgrow SmallFn's
      // inline buffer and allocate per transaction.
      Events.scheduleAfter(Duration, [&CompleteJob, J, Duration] {
        CompleteJob(J, J.StartTime + Duration);
      });
    }
  };

  // Poisson arrival process; with a LoadTrace the instantaneous rate
  // follows the schedule.
  const bool HasTrace = Opts.Trace.phaseCount() > 0;
  std::function<void()> ScheduleArrival = [&]() {
    if (Arrived >= Opts.NumTransactions)
      return;
    double Rate = arrivalRate();
    if (HasTrace) {
      const double Factor = Opts.Trace.loadFactorAt(Events.now());
      Rate = std::max(1e-9, Factor * maxThroughput());
    }
    const double Gap = ArrivalRng.exponential(Rate);
    Events.scheduleAfter(Gap, [&] {
      ++Arrived;
      Queue.push_back({Events.now(), 0.0, 0, Arrived - 1});
      TryStart();
      ScheduleArrival();
    });
  };
  ScheduleArrival();

  // The snapshot and context the mechanism reads: built once per run,
  // their numeric fields updated in place at every tick.
  RegionSnapshot Snap;
  {
    TaskSnapshot Outer;
    Outer.TaskId = OuterTask->id();
    Outer.Name = OuterTask->name();
    Outer.Kind = TaskKind::Parallel;
    TaskSnapshot Inner;
    Inner.TaskId = InnerTask->id();
    Inner.Name = InnerTask->name();
    Inner.Kind = TaskKind::Parallel;
    Outer.InnerAlternatives.push_back({{std::move(Inner)}});
    Snap.Tasks.push_back(std::move(Outer));
  }
  TaskSnapshot &OuterSnap = Snap.Tasks.front();
  TaskSnapshot &InnerSnap = OuterSnap.InnerAlternatives.front().Tasks.front();
  MechanismContext Ctx;
  Ctx.MaxThreads = Opts.Contexts;
  Ctx.Trace = Sink;

  // Mechanism decision ticks.
  Ticks.addTick(Opts.DecisionIntervalSeconds, [&] {
    if (Completed >= Opts.NumTransactions)
      return false;
    const double Now = Events.now();
    LastQueueSample = static_cast<double>(Queue.size());
    LoadEma.addSample(LastQueueSample);
    if (Sink)
      Sink->recordAt(Now, TraceKind::QueueDepth, OuterTask->name(),
                     LastQueueSample, static_cast<double>(ActiveJobs));

    if (Mech) {
      const double ExecTime = ExecTimeEma.value();
      OuterSnap.ExecTime = ExecTime;
      OuterSnap.Load = LoadEma.value();
      OuterSnap.LastLoad = LastQueueSample;
      OuterSnap.Invocations = Completed;
      OuterSnap.CurrentExtent = OuterK;
      OuterSnap.ActiveAlt = InnerM > 1 ? 0 : -1;
      OuterSnap.Throughput = ExecTime > 0.0 ? OuterK / ExecTime : 0.0;
      InnerSnap.ExecTime =
          InnerM > 0 ? ExecTime / static_cast<double>(InnerM) : 0.0;
      InnerSnap.Invocations = Completed;
      InnerSnap.CurrentExtent = InnerM;
      Ctx.NowSeconds = Now;

      if (takesEffect(Loop.step(Snap, Config, Ctx, NoLease))) {
        Config = Loop.proposal();
        OuterK = serverOuterExtent(Config);
        InnerM = serverInnerExtent(Config);
        PausedUntil = Now + Opts.ReconfigPauseSeconds;
        if (Sink)
          Sink->recordAt(Now, TraceKind::Reconfig, "sim", OuterK, InnerM,
                         toString(*Root, Config));
        Events.scheduleAfter(Opts.ReconfigPauseSeconds, [&] { TryStart(); });
      }
    }
    Result.InnerExtentTrace.addPoint(Now, static_cast<double>(InnerM));
    return true;
  });

  // Run to completion: all transactions done or the safety horizon hit.
  Ticks.run(Opts.MaxSimSeconds,
            [&] { return Completed >= Opts.NumTransactions; });

  Result.Verdicts = Loop.counts();
  Result.Reconfigurations = Result.Verdicts.Accepted;
  Result.TotalSeconds = Events.now();
  Result.Throughput = Result.TotalSeconds > 0.0
                          ? static_cast<double>(Completed) /
                                Result.TotalSeconds
                          : 0.0;
  return Result;
}
