//===- tests/ControlLoopTest.cpp - One acceptance policy, four drivers -----===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// A rogue mechanism cycles through an invalid proposal, one over the
// thread envelope, a valid change and the running config, and counts
// what it sent. Every driver of a Mechanism (the native executive, the
// replay harness and the nest and pipeline simulators) must judge that
// traffic the same way through ControlLoop: invalid proposals are refused
// and never applied everywhere; over-envelope proposals are refused where
// the driver holds a lease, and accepted by the two lease-less
// simulators, which model oversubscription instead.
//
//===----------------------------------------------------------------------===//

#include "core/ControlLoop.h"

#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "core/Dope.h"
#include "core/Replay.h"
#include "queue/WorkQueue.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "support/Logging.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

/// What the rogue mechanism sent. Atomic so the native test can read it
/// while the controller thread runs.
struct Sent {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Invalid{0};
  std::atomic<uint64_t> Over{0};
  std::atomic<uint64_t> Valid{0};
  std::atomic<uint64_t> Same{0};
  /// Consults whose running config failed validateConfig: an invalid
  /// proposal that was applied.
  std::atomic<uint64_t> InvalidRunning{0};
};

/// The config of the first parallel task among \p Tasks (the configs of
/// \p Region's tasks), looking through active inner alternatives: a
/// pipeline's stages sit under a sequential driver.
TaskConfig *firstParallel(const ParDescriptor &Region,
                          std::vector<TaskConfig> &Tasks) {
  for (size_t I = 0; I != Tasks.size(); ++I) {
    const Task &T = *Region.tasks()[I];
    if (T.kind() == TaskKind::Parallel)
      return &Tasks[I];
    if (Tasks[I].AltIndex < 0)
      continue;
    const auto Alt = static_cast<size_t>(Tasks[I].AltIndex);
    if (TaskConfig *Inner =
            firstParallel(*T.descriptor()->alternative(Alt), Tasks[I].Inner))
      return Inner;
  }
  return nullptr;
}

class RogueMechanism : public Mechanism {
public:
  /// Emits \p Budget proposals, then keeps the running config. With
  /// \p ArmBelow set it first waits (keeping the config) until the
  /// planning budget drops to that value, so a lease granted after the
  /// run started is in force before the first rogue proposal.
  RogueMechanism(Sent &Log, uint64_t Budget, unsigned ArmBelow = 0)
      : Log(Log), Budget(Budget), Armed(ArmBelow == 0), ArmBelow(ArmBelow) {}

  std::string name() const override { return "rogue"; }

  std::optional<RegionConfig> reconfigure(const ParDescriptor &Region,
                                          const RegionSnapshot &,
                                          const RegionConfig &Current,
                                          const MechanismContext &Ctx) override {
    if (!validateConfig(Region, Current))
      Log.InvalidRunning.fetch_add(1);
    if (!Armed && Ctx.effectiveThreads() <= ArmBelow) {
      Armed = true;
      return std::nullopt;
    }
    if (!Armed || Emitted == Budget) {
      Log.Calls.fetch_add(1, std::memory_order_release);
      return std::nullopt;
    }
    if (!Base) {
      Base = Current;
      Wider = Current;
      ++firstParallel(Region, Wider->Tasks)->Extent;
    }
    std::optional<RegionConfig> Next;
    switch (Emitted++ % 4) {
    case 0: // Invalid: alternately a wrong task count and extent 0.
      Next = Current;
      if (Emitted % 8 == 1)
        Next->Tasks.push_back(Next->Tasks.front());
      else
        Next->Tasks.front().Extent = 0;
      ++Log.Invalid;
      break;
    case 1: // Valid, but one thread wider than the planning budget.
      Next = *Base;
      firstParallel(Region, Next->Tasks)->Extent = Ctx.effectiveThreads() + 1;
      ++Log.Over;
      break;
    case 2: // A valid change inside the budget.
      Next = Current == *Wider ? *Base : *Wider;
      ++Log.Valid;
      break;
    default: // The running config, or no proposal.
      if (Emitted % 8 == 4)
        Next = Current;
      ++Log.Same;
      break;
    }
    Log.Calls.fetch_add(1, std::memory_order_release);
    return Next;
  }

private:
  Sent &Log;
  const uint64_t Budget;
  uint64_t Emitted = 0;
  bool Armed;
  const unsigned ArmBelow;
  std::optional<RegionConfig> Base, Wider;
};

constexpr uint64_t Proposals = 40; // ten rounds of the four kinds

/// Refused proposals log a warning each; keep the test output readable.
class ControlLoopTest : public ::testing::Test {
protected:
  void SetUp() override {
    Saved = Logger::instance().level();
    Logger::instance().setLevel(LogLevel::Error);
  }
  void TearDown() override { Logger::instance().setLevel(Saved); }

  /// Checks shared by every driver.
  static void expectCommon(const Sent &Log, const VerdictCounts &V) {
    EXPECT_EQ(Log.Invalid.load() + Log.Over.load() + Log.Valid.load() +
                  Log.Same.load(),
              Proposals);
    EXPECT_EQ(V.Invalid, Log.Invalid.load());
    EXPECT_EQ(Log.InvalidRunning.load(), 0u) << "an invalid config ran";
  }

  /// A driver holding a lease refuses every over-envelope proposal.
  static void expectLeased(const Sent &Log, const VerdictCounts &V) {
    expectCommon(Log, V);
    EXPECT_EQ(V.OverEnvelope, Log.Over.load());
    EXPECT_EQ(V.Accepted + V.Pending, Log.Valid.load());
  }

  /// A lease-less simulator accepts over-envelope proposals.
  static void expectLeaseless(const Sent &Log, const VerdictCounts &V) {
    expectCommon(Log, V);
    EXPECT_EQ(V.OverEnvelope, 0u);
    EXPECT_EQ(V.Pending, 0u);
    EXPECT_EQ(V.Accepted, Log.Valid.load() + Log.Over.load());
  }

private:
  LogLevel Saved = LogLevel::Warn;
};

TEST_F(ControlLoopTest, NativeExecutiveRefusesOverItsLease) {
  // A DOALL worker over an open queue, so the run stays live while the
  // controller consults the mechanism.
  TaskGraph Graph;
  WorkQueue<int> Queue;
  TaskFn Fn = [&Queue](TaskRuntime &RT) {
    if (RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    if (!Queue.tryPop()) {
      if (Queue.closed())
        return TaskStatus::Finished;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return RT.end() == TaskStatus::Suspended ? TaskStatus::Suspended
                                             : TaskStatus::Executing;
  };
  Task *Work = Graph.createTask("worker", Fn, LoadFn(), Graph.parDescriptor());
  ParDescriptor *Root = Graph.createRegion({Work});

  Sent Log;
  DopeOptions Opts;
  Opts.MaxThreads = 4;
  Opts.MonitorIntervalSeconds = 0.001;
  Opts.MinReconfigIntervalSeconds = 0.0;
  Opts.Mech = std::make_unique<RogueMechanism>(Log, Proposals,
                                               /*ArmBelow=*/2);
  std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
  D->setThreadEnvelope(2); // proposals of 3 threads fit MaxThreads only

  // Once the mechanism is consulted past its budget, the loop has
  // judged every rogue proposal.
  for (int I = 0; I != 1000 && Log.Calls.load(std::memory_order_acquire) <=
                                   Proposals;
       ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_GT(Log.Calls.load(std::memory_order_acquire), Proposals);

  const VerdictCounts V = D->verdictCounts();
  expectLeased(Log, V);
  EXPECT_TRUE(validateConfig(*Root, D->currentConfig()));
  EXPECT_LE(totalThreads(*Root, D->currentConfig()), 2u);
  Queue.close();
  EXPECT_EQ(D->wait(), TaskStatus::Finished);
}

TEST_F(ControlLoopTest, ReplayRefusesOverTheStepsLease) {
  FeatureStream S;
  S.Name = "rogue-lease";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 8;
  S.Stages = {{"read", false}, {"work", true}, {"write", false}};
  const unsigned Lease[] = {8, 4, 6, 5};
  for (size_t I = 0; I != Proposals; ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    if (I % 10 == 0)
      Step.ThreadEnvelope = Lease[I / 10];
    Step.ExecTime = {0.1, 0.4, 0.1};
    Step.Load = {1.0, 4.0, 1.0};
    S.Steps.push_back(std::move(Step));
  }

  Sent Log;
  RogueMechanism M(Log, Proposals);
  ReplayMechanismHarness Harness(std::move(S));
  const ReplayResult R = Harness.run(M);
  expectLeased(Log, R.Verdicts);
  EXPECT_EQ(R.Verdicts.Pending, 0u); // replay applies at once
  EXPECT_EQ(R.Decisions.size(), R.Verdicts.Accepted);
  for (const ReplayDecision &D : R.Decisions)
    EXPECT_LE(D.TotalThreads, D.Budget) << "step " << D.Step;
}

TEST_F(ControlLoopTest, PipelineSimAcceptsOversubscription) {
  PipelineSimOptions Opts;
  Opts.Contexts = 8;
  Opts.NumItems = 400;
  Opts.Seed = 7;
  PipelineSim Sim(makeFerretApp(), Opts);

  Sent Log;
  RogueMechanism M(Log, Proposals);
  const PipelineSimResult R = Sim.run(&M, {});
  expectLeaseless(Log, R.Verdicts);
  EXPECT_EQ(R.Reconfigurations, R.Verdicts.Accepted);
  EXPECT_EQ(R.ItemsCompleted, Opts.NumItems);
}

TEST_F(ControlLoopTest, NestServerSimAcceptsOversubscription) {
  NestAppBundle App = makeX264App();
  NestSimOptions Opts;
  Opts.Contexts = 8;
  Opts.NumTransactions = 300;
  Opts.Seed = 7;
  NestServerSim Sim(App.Model, Opts);

  Sent Log;
  RogueMechanism M(Log, Proposals);
  const NestSimResult R = Sim.run(&M, /*InitialOuter=*/2, /*InitialInner=*/2);
  expectLeaseless(Log, R.Verdicts);
  EXPECT_EQ(R.Reconfigurations, R.Verdicts.Accepted);
  EXPECT_EQ(R.Stats.count(), Opts.NumTransactions);
}

} // namespace
