//===- examples/batch_search.cpp - Ferret-like pipeline under TBF ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ferret-style image-search pipeline on the real DoPE run-time: a
/// batch of queries flows through load -> extract -> rank -> out stages
/// connected by work queues. The pipeline and a *fused* variant (one
/// task performing extract+rank back-to-back, communicating through the
/// stack instead of queues) are both registered as descriptor
/// alternatives — exactly how the paper's TBF consumes
/// application-exposed fused tasks (Sec. 7.2).
///
/// The administrator's goal is maximum throughput; DoPE's default
/// mechanism for that goal (TBF) balances and, when stage imbalance
/// crosses the threshold, fuses.
///
//===----------------------------------------------------------------------===//

#include "apps/NativeKernels.h"
#include "core/Dope.h"
#include "mechanisms/Goal.h"
#include "queue/WorkQueue.h"
#include "support/Clock.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>

using namespace dope;

namespace {

constexpr uint64_t NumQueries = 4000;
// Deliberately imbalanced stage weights (extract dominates).
constexpr uint64_t LoadWork = 4000;
constexpr uint64_t ExtractWork = 120000;
constexpr uint64_t RankWork = 30000;

struct Query {
  uint64_t Id = 0;
  uint64_t Feature = 0;
  uint64_t Score = 0;
};

uint64_t expectedResult(uint64_t Id) {
  const uint64_t Feature = hashWork(Id, LoadWork);
  const uint64_t Score = hashWork(Feature, ExtractWork);
  return hashWork(Score, RankWork);
}

} // namespace

int main() {
  WorkQueue<uint64_t> Input;
  for (uint64_t I = 0; I != NumQueries; ++I)
    Input.push(I);
  Input.close();

  WorkQueue<Query> Q1; // load -> extract (unfused) or load -> fused
  WorkQueue<Query> Q2; // extract -> rank
  WorkQueue<Query> Q3; // rank -> out / fused -> out

  std::mutex ResultsMutex;
  std::set<uint64_t> Done;
  std::atomic<uint64_t> ResultDigest{0};

  TaskGraph Graph;

  TaskFn LoadFn_ = [&](TaskRuntime &RT) {
    if (RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Suspended; // the FiniCB closes Q1 downstream
    std::optional<uint64_t> Id = Input.waitAndPop();
    if (!Id)
      return TaskStatus::Finished;
    Query Q;
    Q.Id = *Id;
    Q.Feature = hashWork(*Id, LoadWork);
    Q1.push(Q);
    (void)RT.end();
    return TaskStatus::Executing;
  };
  TaskFn ExtractFn = [&](TaskRuntime &RT) {
    std::optional<Query> Q = Q1.waitAndPop();
    if (!Q)
      return TaskStatus::Finished; // FiniCB closes Q2
    (void)RT.begin();
    Q->Score = hashWork(Q->Feature, ExtractWork);
    (void)RT.end();
    Q2.push(*Q);
    return TaskStatus::Executing;
  };
  TaskFn RankFn = [&](TaskRuntime &RT) {
    std::optional<Query> Q = Q2.waitAndPop();
    if (!Q)
      return TaskStatus::Finished; // FiniCB closes Q3
    (void)RT.begin();
    Q->Score = hashWork(Q->Score, RankWork);
    (void)RT.end();
    Q3.push(*Q);
    return TaskStatus::Executing;
  };
  // Fused variant: extract + rank in one task, no intermediate queue —
  // "unidirectional inter-task communication changed to method-argument
  // communication via the stack" (Sec. 7.2).
  TaskFn FusedFn = [&](TaskRuntime &RT) {
    std::optional<Query> Q = Q1.waitAndPop();
    if (!Q)
      return TaskStatus::Finished; // FiniCB closes Q3
    (void)RT.begin();
    Q->Score = hashWork(hashWork(Q->Feature, ExtractWork), RankWork);
    (void)RT.end();
    Q3.push(*Q);
    return TaskStatus::Executing;
  };
  TaskFn OutFn = [&](TaskRuntime &RT) {
    std::optional<Query> Q = Q3.waitAndPop();
    if (!Q)
      return TaskStatus::Finished;
    (void)RT.begin(); // every stage is monitored, like the paper's Write
    ResultDigest.fetch_add(Q->Score, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(ResultsMutex);
      Done.insert(Q->Id);
    }
    (void)RT.end();
    return TaskStatus::Executing;
  };

  auto QueueLoad = [](WorkQueue<Query> &Q) {
    return [&Q] { return static_cast<double>(Q.size()); };
  };

  // InitCBs reopen each task's output queue when a parallel region is
  // (re)entered after a reconfiguration; the suspension path closed them
  // to drain the pipeline.
  Task *Load = Graph.createTask("load", LoadFn_, LoadFn(),
                                Graph.seqDescriptor(),
                                /*Init=*/[&] { Q1.reopen(); },
                                /*Fini=*/[&] { Q1.close(); });
  Task *Extract = Graph.createTask("extract", ExtractFn, QueueLoad(Q1),
                                   Graph.parDescriptor(),
                                   /*Init=*/[&] { Q2.reopen(); },
                                   /*Fini=*/[&] { Q2.close(); });
  Task *Rank = Graph.createTask("rank", RankFn, QueueLoad(Q2),
                                Graph.parDescriptor(),
                                /*Init=*/[&] { Q3.reopen(); },
                                /*Fini=*/[&] { Q3.close(); });
  Task *Out = Graph.createTask("out", OutFn, QueueLoad(Q3),
                               Graph.seqDescriptor());
  ParDescriptor *Pipeline = Graph.createRegion({Load, Extract, Rank, Out});

  Task *LoadF = Graph.createTask("load", LoadFn_, LoadFn(),
                                 Graph.seqDescriptor(),
                                 /*Init=*/[&] { Q1.reopen(); },
                                 /*Fini=*/[&] { Q1.close(); });
  Task *Fused = Graph.createTask("extract+rank", FusedFn, QueueLoad(Q1),
                                 Graph.parDescriptor(),
                                 /*Init=*/[&] { Q3.reopen(); },
                                 /*Fini=*/[&] { Q3.close(); });
  Task *OutF = Graph.createTask("out", OutFn, QueueLoad(Q3),
                                Graph.seqDescriptor());
  ParDescriptor *FusedPipeline = Graph.createRegion({LoadF, Fused, OutF});

  // Driver task: runs the selected pipeline alternative once.
  TaskFn DriverFn = [&](TaskRuntime &RT) {
    const TaskStatus Inner = RT.wait();
    return Inner == TaskStatus::Suspended ? TaskStatus::Suspended
                                          : TaskStatus::Finished;
  };
  Task *Driver = Graph.createTask(
      "search", DriverFn, LoadFn(),
      Graph.createDescriptor(TaskKind::Sequential,
                             {Pipeline, FusedPipeline}));
  ParDescriptor *Root = Graph.createRegion({Driver});

  // Administrator: "maximize throughput with 4 threads" — the default
  // mechanism for that goal is TBF.
  PerformanceGoal Goal;
  Goal.Obj = Objective::MaxThroughput;
  Goal.MaxThreads = 4;

  DopeOptions Opts;
  Opts.MaxThreads = Goal.MaxThreads;
  Opts.MonitorIntervalSeconds = 0.01;
  Opts.MinReconfigIntervalSeconds = 0.05;
  Opts.Mech = makeDefaultMechanism(Goal);

  const double Start = monotonicSeconds();
  std::unique_ptr<Dope> Executive = Dope::create(Root, std::move(Opts));
  Executive->wait();
  const double Elapsed = monotonicSeconds() - Start;

  uint64_t Expected = 0;
  for (uint64_t I = 0; I != NumQueries; ++I)
    Expected += expectedResult(I);

  const bool Correct =
      Done.size() == NumQueries && ResultDigest.load() == Expected;
  std::printf("batch_search: %zu/%llu queries, digest %s, %.2f "
              "queries/s\n",
              Done.size(), static_cast<unsigned long long>(NumQueries),
              Correct ? "verified" : "MISMATCH",
              static_cast<double>(Done.size()) / Elapsed);
  std::printf("  reconfigurations: %llu, final configuration: %s\n",
              static_cast<unsigned long long>(
                  Executive->reconfigurationCount()),
              toString(*Root, Executive->currentConfig()).c_str());
  return Correct ? 0 : 1;
}
