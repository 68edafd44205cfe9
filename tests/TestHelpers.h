//===- tests/TestHelpers.h - Shared test fixtures --------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders shared by the unit tests: canonical task graphs (server nest,
/// driver-wrapped pipeline) with dummy functors, and snapshot fabricators
/// so mechanism tests can exercise decision logic without a run-time.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TESTS_TESTHELPERS_H
#define DOPE_TESTS_TESTHELPERS_H

#include "core/Config.h"
#include "core/Monitor.h"
#include "core/Task.h"
#include "support/Random.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dope {
namespace testing_helpers {

/// Seed for a randomized test. The DOPE_TEST_SEED environment variable
/// overrides \p Default, and the chosen seed is always printed, so a
/// failure seen anywhere reproduces exactly with
/// DOPE_TEST_SEED=<seed> ctest -R <test>. (The implementation lives in
/// support/Random.h so non-test harnesses can use the same convention.)
inline uint64_t loggedSeed(uint64_t Default) {
  return loggedTestSeed(Default);
}

/// Burns CPU for \p Iterations loop trips. The volatile counter keeps
/// the optimizer from deleting the loop.
inline void spin(unsigned Iterations) {
  volatile unsigned Counter = 0;
  while (Counter < Iterations)
    Counter = Counter + 1;
}

inline TaskFn dummyFn() {
  return [](TaskRuntime &) { return TaskStatus::Finished; };
}

/// A server nest: root{ outer(PAR, alt0 = { work(PAR) }) }.
struct ServerNestGraph {
  std::unique_ptr<TaskGraph> Graph;
  ParDescriptor *Root = nullptr;
  Task *Outer = nullptr;
  Task *InnerWork = nullptr;
};

inline ServerNestGraph makeServerNestGraph() {
  ServerNestGraph G;
  G.Graph = std::make_unique<TaskGraph>();
  G.InnerWork = G.Graph->createTask("work", dummyFn(), LoadFn(),
                                    G.Graph->parDescriptor());
  ParDescriptor *Inner = G.Graph->createRegion({G.InnerWork});
  G.Outer = G.Graph->createTask(
      "outer", dummyFn(), LoadFn(),
      G.Graph->createDescriptor(TaskKind::Parallel, {Inner}));
  G.Root = G.Graph->createRegion({G.Outer});
  return G;
}

/// A driver-wrapped pipeline: root{ driver(SEQ, alt0 = stages,
/// alt1 = fused stages when FusedSpecs nonempty) }.
struct PipelineGraph {
  std::unique_ptr<TaskGraph> Graph;
  ParDescriptor *Root = nullptr;
  Task *Driver = nullptr;
  std::vector<Task *> Stages;
  std::vector<Task *> FusedStages;
};

struct StageSpec {
  std::string Name;
  bool Parallel = true;
};

inline PipelineGraph
makePipelineGraph(const std::vector<StageSpec> &Specs,
                  const std::vector<StageSpec> &FusedSpecs = {}) {
  PipelineGraph G;
  G.Graph = std::make_unique<TaskGraph>();
  auto MakeRegion = [&](const std::vector<StageSpec> &S,
                        std::vector<Task *> &Out) {
    for (const StageSpec &Spec : S)
      Out.push_back(G.Graph->createTask(Spec.Name, dummyFn(), LoadFn(),
                                        Spec.Parallel
                                            ? G.Graph->parDescriptor()
                                            : G.Graph->seqDescriptor()));
    return G.Graph->createRegion(Out);
  };
  std::vector<ParDescriptor *> Alts;
  Alts.push_back(MakeRegion(Specs, G.Stages));
  if (!FusedSpecs.empty())
    Alts.push_back(MakeRegion(FusedSpecs, G.FusedStages));
  G.Driver = G.Graph->createTask(
      "driver", dummyFn(), LoadFn(),
      G.Graph->createDescriptor(TaskKind::Sequential, Alts));
  G.Root = G.Graph->createRegion({G.Driver});
  return G;
}

/// Builds a snapshot for a driver-wrapped pipeline with the given
/// per-stage (ExecTime, Load) metrics on the active alternative.
struct StageMetricsSpec {
  double ExecTime = 0.1;
  double Load = 0.0;
  uint64_t Invocations = 10;
};

inline RegionSnapshot
makePipelineSnapshot(const PipelineGraph &G, const RegionConfig &Config,
                     const std::vector<StageMetricsSpec> &Metrics) {
  RegionSnapshot Snap;
  TaskSnapshot DriverTs;
  DriverTs.TaskId = G.Driver->id();
  DriverTs.Name = G.Driver->name();
  DriverTs.Kind = TaskKind::Sequential;
  DriverTs.CurrentExtent = 1;
  const TaskConfig &DriverConfig = Config.Tasks.front();
  DriverTs.ActiveAlt = DriverConfig.AltIndex;

  const size_t AltCount = G.Driver->descriptor()->alternativeCount();
  for (size_t A = 0; A != AltCount; ++A) {
    RegionSnapshot AltSnap;
    const ParDescriptor *Alt = G.Driver->descriptor()->alternative(A);
    for (size_t S = 0; S != Alt->size(); ++S) {
      TaskSnapshot TS;
      const Task *T = Alt->tasks()[S];
      TS.TaskId = T->id();
      TS.Name = T->name();
      TS.Kind = T->kind();
      if (static_cast<int>(A) == DriverConfig.AltIndex &&
          S < Metrics.size()) {
        TS.ExecTime = Metrics[S].ExecTime;
        TS.Load = Metrics[S].Load;
        TS.LastLoad = Metrics[S].Load;
        TS.Invocations = Metrics[S].Invocations;
        TS.CurrentExtent = DriverConfig.Inner[S].Extent;
        if (TS.ExecTime > 0.0)
          TS.Throughput = TS.CurrentExtent / TS.ExecTime;
      }
      AltSnap.Tasks.push_back(std::move(TS));
    }
    DriverTs.InnerAlternatives.push_back(std::move(AltSnap));
  }
  Snap.Tasks.push_back(std::move(DriverTs));
  return Snap;
}

/// Builds a snapshot for a server nest with the given queue occupancy.
inline RegionSnapshot makeServerSnapshot(const ServerNestGraph &G,
                                         double QueueOccupancy,
                                         unsigned OuterExtent = 24,
                                         unsigned InnerExtent = 1) {
  RegionSnapshot Snap;
  TaskSnapshot Outer;
  Outer.TaskId = G.Outer->id();
  Outer.Name = G.Outer->name();
  Outer.Kind = TaskKind::Parallel;
  Outer.ExecTime = 1.0;
  Outer.Load = QueueOccupancy;
  Outer.LastLoad = QueueOccupancy;
  Outer.Invocations = 100;
  Outer.CurrentExtent = OuterExtent;
  Outer.ActiveAlt = InnerExtent > 1 ? 0 : -1;

  RegionSnapshot InnerSnap;
  TaskSnapshot Work;
  Work.TaskId = G.InnerWork->id();
  Work.Name = G.InnerWork->name();
  Work.Kind = TaskKind::Parallel;
  Work.CurrentExtent = InnerExtent;
  InnerSnap.Tasks.push_back(std::move(Work));
  Outer.InnerAlternatives.push_back(std::move(InnerSnap));
  Snap.Tasks.push_back(std::move(Outer));
  return Snap;
}

} // namespace testing_helpers
} // namespace dope

#endif // DOPE_TESTS_TESTHELPERS_H
