//===- tests/DopeExecutiveTest.cpp - Native executive tests ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Dope.h"

#include "queue/WorkQueue.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

using namespace dope;

namespace {

/// A DOALL loop over a closed work queue: every functor invocation pops
/// one item; FINISHED once the queue drains.
struct DoAllApp {
  TaskGraph Graph;
  WorkQueue<int> Queue;
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Count{0};
  ParDescriptor *Root = nullptr;
  Task *Work = nullptr;

  explicit DoAllApp(int NumItems, bool UseBeginEnd = true) {
    for (int I = 0; I != NumItems; ++I)
      Queue.push(I);
    Queue.close();

    TaskFn Fn = [this, UseBeginEnd](TaskRuntime &RT) {
      if (UseBeginEnd && RT.begin() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      std::optional<int> Item = Queue.waitAndPop();
      if (!Item)
        return TaskStatus::Finished;
      Sum.fetch_add(static_cast<uint64_t>(*Item));
      Count.fetch_add(1);
      if (UseBeginEnd && RT.end() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      return TaskStatus::Executing;
    };
    LoadFn Load = [this] { return static_cast<double>(Queue.size()); };
    Work = Graph.createTask("doall", Fn, Load, Graph.parDescriptor());
    Root = Graph.createRegion({Work});
  }
};

TEST(DopeExecutive, DoAllCompletesSequentially) {
  DoAllApp App(100);
  DopeOptions Opts;
  Opts.MaxThreads = 1;
  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->wait();
  EXPECT_TRUE(D->finished());
  EXPECT_EQ(App.Count.load(), 100u);
  EXPECT_EQ(App.Sum.load(), 4950u);
}

TEST(DopeExecutive, DoAllCompletesWithParallelExtent) {
  DoAllApp App(500);
  DopeOptions Opts;
  Opts.MaxThreads = 4;
  RegionConfig Config;
  TaskConfig TC;
  TC.Extent = 4;
  Config.Tasks.push_back(TC);
  Opts.InitialConfig = Config;
  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->wait();
  EXPECT_EQ(App.Count.load(), 500u);
  EXPECT_EQ(App.Sum.load(), 500u * 499u / 2);
}

TEST(DopeExecutive, DestroyWaitsForTasks) {
  auto App = std::make_unique<DoAllApp>(50);
  DopeOptions Opts;
  Opts.MaxThreads = 2;
  std::unique_ptr<Dope> D = Dope::create(App->Root, std::move(Opts));
  Dope::destroy(std::move(D));
  EXPECT_EQ(App->Count.load(), 50u);
}

TEST(DopeExecutive, RecordsExecutionTimeAndLoad) {
  DoAllApp App(200);
  DopeOptions Opts;
  Opts.MaxThreads = 2;
  Opts.MonitorIntervalSeconds = 0.001;
  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->wait();
  // Each instance is cheap but timing is recorded for every begin/end
  // pair.
  EXPECT_GE(D->getExecTime(App.Work), 0.0);
  // The queue drained, so the smoothed load is small but was sampled.
  EXPECT_GE(D->getLoad(App.Work), 0.0);
}

TEST(DopeExecutive, RequestStopEndsEarly) {
  // An infinite loop that only exits via the SUSPENDED signal.
  TaskGraph Graph;
  std::atomic<uint64_t> Iterations{0};
  TaskFn Fn = [&](TaskRuntime &RT) {
    if (RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Finished; // treat stop as end-of-input
    Iterations.fetch_add(1);
    if (RT.end() == TaskStatus::Suspended)
      return TaskStatus::Finished;
    return TaskStatus::Executing;
  };
  Task *Loop = Graph.createTask("spin", Fn, LoadFn(),
                                Graph.parDescriptor());
  ParDescriptor *Root = Graph.createRegion({Loop});

  DopeOptions Opts;
  Opts.MaxThreads = 1;
  std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
  while (Iterations.load() < 10)
    std::this_thread::yield();
  D->requestStop();
  D->wait();
  EXPECT_TRUE(D->finished());
  EXPECT_GE(Iterations.load(), 10u);
}

/// A two-stage pipeline (producer -> consumer) communicating through a
/// WorkQueue; the producer's FiniCB closes the queue so the consumer
/// drains — the paper's sentinel protocol with queue-closure semantics.
struct PipelineApp {
  TaskGraph Graph;
  WorkQueue<int> Q;
  std::atomic<int> Produced{0};
  std::atomic<uint64_t> Consumed{0};
  std::mutex SeenMutex;
  std::set<int> Seen;
  std::atomic<int> Burn{0};
  int Limit;
  ParDescriptor *Root = nullptr;
  Task *Producer = nullptr;
  Task *Consumer = nullptr;

  /// When \p HoldOpen is non-null the producer keeps the loop alive
  /// (without producing) until it becomes true — used to guarantee a
  /// reconfiguration lands before the stream ends.
  explicit PipelineApp(int Limit, std::atomic<bool> *HoldOpen = nullptr)
      : Limit(Limit) {
    TaskFn ProduceFn = [this, HoldOpen](TaskRuntime &RT) {
      if (RT.begin() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      const int Item = Produced.load();
      if (Item >= this->Limit) {
        if (HoldOpen && !HoldOpen->load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return RT.end() == TaskStatus::Suspended ? TaskStatus::Suspended
                                                   : TaskStatus::Executing;
        }
        return TaskStatus::Finished;
      }
      Produced.store(Item + 1); // single sequential producer
      Q.push(Item);
      if (RT.end() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      return TaskStatus::Executing;
    };
    // The consumer ignores suspension entirely and drains to the
    // sentinel (closure), like Transform/Write in the paper's Fig. 7.
    TaskFn ConsumeFn = [this](TaskRuntime &) {
      std::optional<int> Item = Q.waitAndPop();
      if (!Item)
        return TaskStatus::Finished;
      // Burn a little CPU per item so runs span many monitor intervals.
      Burn += static_cast<int>(*Item == 0);
      testing_helpers::spin(2000);
      Consumed.fetch_add(1);
      {
        std::lock_guard<std::mutex> Lock(SeenMutex);
        Seen.insert(*Item);
      }
      return TaskStatus::Executing;
    };
    HookFn ProducerFini = [this] { Q.close(); };
    HookFn ProducerInit = [this] { Q.reopen(); };

    Producer = Graph.createTask("produce", ProduceFn, LoadFn(),
                                Graph.seqDescriptor(), ProducerInit,
                                ProducerFini);
    Consumer = Graph.createTask(
        "consume", ConsumeFn,
        [this] { return static_cast<double>(Q.size()); },
        Graph.parDescriptor());
    Root = Graph.createRegion({Producer, Consumer});
  }
};

TEST(DopeExecutive, PipelineDeliversEveryItemOnce) {
  PipelineApp App(300);
  DopeOptions Opts;
  Opts.MaxThreads = 3;
  RegionConfig Config;
  TaskConfig ProducerC, ConsumerC;
  ConsumerC.Extent = 2;
  Config.Tasks = {ProducerC, ConsumerC};
  Opts.InitialConfig = Config;
  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->wait();
  EXPECT_EQ(App.Consumed.load(), 300u);
  EXPECT_EQ(App.Seen.size(), 300u);
  EXPECT_EQ(*App.Seen.begin(), 0);
  EXPECT_EQ(*App.Seen.rbegin(), 299);
}

/// Mechanism that switches the configuration once, exercising the full
/// suspend / quiesce / reconfigure path, and reports (via \p Applied)
/// when the executive confirms the target is running.
class SwitchOnceMechanism : public Mechanism {
public:
  SwitchOnceMechanism(RegionConfig Target, std::atomic<bool> &Applied)
      : Target(std::move(Target)), Applied(Applied) {}
  std::string name() const override { return "SwitchOnce"; }
  std::optional<RegionConfig>
  reconfigure(const ParDescriptor &, const RegionSnapshot &,
              const RegionConfig &Current, const MechanismContext &)
      override {
    if (Current == Target) {
      Applied.store(true);
      return std::nullopt;
    }
    return Target;
  }

private:
  RegionConfig Target;
  std::atomic<bool> &Applied;
};

TEST(DopeExecutive, ReconfigurationPreservesPipelineOutput) {
  std::atomic<bool> Applied{false};
  PipelineApp App(2000, &Applied);
  DopeOptions Opts;
  Opts.MaxThreads = 4;
  Opts.MonitorIntervalSeconds = 0.001;
  Opts.MinReconfigIntervalSeconds = 0.001;

  RegionConfig Initial;
  TaskConfig ProducerC, ConsumerC;
  ConsumerC.Extent = 1;
  Initial.Tasks = {ProducerC, ConsumerC};
  Opts.InitialConfig = Initial;

  RegionConfig Target = Initial;
  Target.Tasks[1].Extent = 3;
  Opts.Mech = std::make_unique<SwitchOnceMechanism>(Target, Applied);

  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->wait();
  // Reconfiguration must not lose or duplicate items. Items produced
  // before a suspension land in the queue and are re-read after the
  // restart; the producer counter never rolls back, so every index in
  // [0, 2000) arrives exactly once.
  EXPECT_EQ(App.Seen.size(), App.Consumed.load());
  EXPECT_EQ(App.Consumed.load(), 2000u);
  EXPECT_GE(D->reconfigurationCount(), 1u);
  EXPECT_EQ(D->currentConfig().Tasks[1].Extent, 3u);
}

/// Nested parallelism: an outer loop over jobs where each job runs an
/// inner DOALL region via TaskRuntime::wait().
struct NestedApp {
  TaskGraph Graph;
  std::atomic<int> NextJob{0};
  std::atomic<uint64_t> InnerWorkDone{0};
  std::atomic<int> SharedCounter{0};
  int Jobs;
  int ChunksPerJob;
  ParDescriptor *Root = nullptr;
  Task *Outer = nullptr;
  Task *Inner = nullptr;

  NestedApp(int Jobs, int ChunksPerJob)
      : Jobs(Jobs), ChunksPerJob(ChunksPerJob) {
    TaskFn InnerFn = [this](TaskRuntime &) {
      const int Chunk = SharedCounter.fetch_add(1);
      if (Chunk >= this->ChunksPerJob)
        return TaskStatus::Finished;
      InnerWorkDone.fetch_add(1);
      return TaskStatus::Executing;
    };
    Inner = Graph.createTask("chunk", InnerFn, LoadFn(),
                             Graph.parDescriptor());
    ParDescriptor *InnerRegion = Graph.createRegion({Inner});

    TaskFn OuterFn = [this](TaskRuntime &RT) {
      if (RT.begin() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      const int Job = NextJob.fetch_add(1);
      if (Job >= this->Jobs)
        return TaskStatus::Finished;
      SharedCounter.store(0);
      const TaskStatus Inner = RT.wait();
      if (Inner == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      if (RT.end() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      return TaskStatus::Executing;
    };
    Outer = Graph.createTask(
        "job", OuterFn, LoadFn(),
        Graph.createDescriptor(TaskKind::Parallel, {InnerRegion}));
    Root = Graph.createRegion({Outer});
  }
};

TEST(DopeExecutive, NestedWaitRunsInnerRegion) {
  // One outer job at a time so the shared chunk counter is unambiguous.
  NestedApp App(10, 8);
  DopeOptions Opts;
  Opts.MaxThreads = 3;
  RegionConfig Config;
  TaskConfig OuterC;
  OuterC.Extent = 1;
  OuterC.AltIndex = 0;
  TaskConfig InnerC;
  InnerC.Extent = 3;
  OuterC.Inner.push_back(InnerC);
  Config.Tasks.push_back(OuterC);
  Opts.InitialConfig = Config;

  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->wait();
  EXPECT_EQ(App.InnerWorkDone.load(), 10u * 8u);
}

/// Three-level nesting: an outer loop over batches, a middle loop over
/// jobs within a batch, and an inner DOALL over chunks within a job —
/// arbitrary depth is part of the descriptor design even though the
/// paper's applications expose at most two levels.
TEST(DopeExecutive, ThreeLevelNestExecutes) {
  TaskGraph Graph;
  std::atomic<int> ChunkCursor{0};
  std::atomic<uint64_t> ChunksDone{0};
  std::atomic<int> JobCursor{0};
  std::atomic<int> BatchCursor{0};
  constexpr int Batches = 4, JobsPerBatch = 3, ChunksPerJob = 5;

  TaskFn ChunkFn = [&](TaskRuntime &) {
    if (ChunkCursor.fetch_add(1) >= ChunksPerJob)
      return TaskStatus::Finished;
    ChunksDone.fetch_add(1);
    return TaskStatus::Executing;
  };
  Task *Chunk =
      Graph.createTask("chunk", ChunkFn, LoadFn(), Graph.parDescriptor());
  ParDescriptor *ChunkRegion = Graph.createRegion({Chunk});

  TaskFn JobFn = [&](TaskRuntime &RT) {
    if (JobCursor.fetch_add(1) >= JobsPerBatch)
      return TaskStatus::Finished;
    ChunkCursor.store(0);
    return RT.wait() == TaskStatus::Suspended ? TaskStatus::Suspended
                                              : TaskStatus::Executing;
  };
  Task *Job = Graph.createTask(
      "job", JobFn, LoadFn(),
      Graph.createDescriptor(TaskKind::Parallel, {ChunkRegion}));
  ParDescriptor *JobRegion = Graph.createRegion({Job});

  TaskFn BatchFn = [&](TaskRuntime &RT) {
    if (RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    if (BatchCursor.fetch_add(1) >= Batches)
      return TaskStatus::Finished;
    JobCursor.store(0);
    const TaskStatus Inner = RT.wait();
    if (Inner == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    return RT.end() == TaskStatus::Suspended ? TaskStatus::Suspended
                                             : TaskStatus::Executing;
  };
  Task *Batch = Graph.createTask(
      "batch", BatchFn, LoadFn(),
      Graph.createDescriptor(TaskKind::Parallel, {JobRegion}));
  ParDescriptor *Root = Graph.createRegion({Batch});

  // <1 batch, 1 job, 2 chunks> — 1 * (1 * 2) = 2 threads.
  RegionConfig Config = defaultConfig(*Root);
  Config.Tasks[0].Inner[0].Inner[0].Extent = 2;
  std::string Error;
  ASSERT_TRUE(validateConfig(*Root, Config, &Error)) << Error;
  EXPECT_EQ(totalThreads(*Root, Config), 2u);

  DopeOptions Opts;
  Opts.MaxThreads = 2;
  Opts.InitialConfig = Config;
  std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
  D->wait();
  EXPECT_EQ(ChunksDone.load(),
            static_cast<uint64_t>(Batches * JobsPerBatch * ChunksPerJob));
}

TEST(DopeExecutive, NoInnerAlternativeMakesWaitFinish) {
  TaskGraph Graph;
  std::atomic<int> Count{0};
  TaskFn Fn = [&](TaskRuntime &RT) {
    EXPECT_EQ(RT.wait(), TaskStatus::Finished);
    return ++Count >= 3 ? TaskStatus::Finished : TaskStatus::Executing;
  };
  Task *T = Graph.createTask("leaf", Fn, LoadFn(), Graph.parDescriptor());
  ParDescriptor *Root = Graph.createRegion({T});
  DopeOptions Opts;
  Opts.MaxThreads = 1;
  std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
  D->wait();
  EXPECT_EQ(Count.load(), 3);
}

TEST(DopeExecutive, PlatformFeatureRegistration) {
  DoAllApp App(10);
  DopeOptions Opts;
  Opts.MaxThreads = 1;
  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  D->registerCB("SystemPower", [] { return 540.0; });
  EXPECT_TRUE(D->getValue("SystemPower").has_value());
  EXPECT_DOUBLE_EQ(*D->getValue("SystemPower"), 540.0);
  EXPECT_FALSE(D->getValue("Temperature").has_value());
  D->wait();
}

TEST(DopeExecutive, SnapshotReflectsConfiguration) {
  DoAllApp App(50);
  DopeOptions Opts;
  Opts.MaxThreads = 2;
  RegionConfig Config;
  TaskConfig TC;
  TC.Extent = 2;
  Config.Tasks.push_back(TC);
  Opts.InitialConfig = Config;
  std::unique_ptr<Dope> D = Dope::create(App.Root, std::move(Opts));
  RegionSnapshot Snap = D->snapshot();
  ASSERT_EQ(Snap.Tasks.size(), 1u);
  EXPECT_EQ(Snap.Tasks[0].Name, "doall");
  EXPECT_EQ(Snap.Tasks[0].CurrentExtent, 2u);
  D->wait();
}

} // namespace
