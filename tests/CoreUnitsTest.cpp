//===- tests/CoreUnitsTest.cpp - FeatureRegistry/ThreadPool/Metrics tests --===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/FeatureRegistry.h"
#include "core/Monitor.h"
#include "core/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace dope;

namespace {

TEST(FeatureRegistry, RegisterAndQuery) {
  FeatureRegistry R;
  R.registerFeature("SystemPower", [] { return 540.0; });
  EXPECT_TRUE(R.hasFeature("SystemPower"));
  auto Value = R.getValue("SystemPower", 0.0);
  ASSERT_TRUE(Value.has_value());
  EXPECT_DOUBLE_EQ(*Value, 540.0);
}

TEST(FeatureRegistry, UnknownFeatureIsNullopt) {
  FeatureRegistry R;
  EXPECT_FALSE(R.getValue("nope", 0.0).has_value());
  EXPECT_FALSE(R.hasFeature("nope"));
}

TEST(FeatureRegistry, RateLimitCachesValue) {
  FeatureRegistry R;
  int Calls = 0;
  // 13 samples/minute, like the paper's PDU.
  R.registerFeature(
      "SystemPower",
      [&] {
        ++Calls;
        return 100.0 + Calls;
      },
      60.0 / 13.0);
  EXPECT_DOUBLE_EQ(*R.getValue("SystemPower", 0.0), 101.0);
  // Within the sampling interval: cached.
  EXPECT_DOUBLE_EQ(*R.getValue("SystemPower", 1.0), 101.0);
  EXPECT_EQ(Calls, 1);
  // After the interval: fresh sample.
  EXPECT_DOUBLE_EQ(*R.getValue("SystemPower", 5.0), 102.0);
  EXPECT_EQ(Calls, 2);
}

TEST(FeatureRegistry, ReregisterReplacesCallback) {
  FeatureRegistry R;
  R.registerFeature("f", [] { return 1.0; });
  R.registerFeature("f", [] { return 2.0; });
  EXPECT_DOUBLE_EQ(*R.getValue("f", 0.0), 2.0);
}

TEST(FeatureRegistry, Unregister) {
  FeatureRegistry R;
  R.registerFeature("f", [] { return 1.0; });
  R.unregisterFeature("f");
  EXPECT_FALSE(R.hasFeature("f"));
  R.unregisterFeature("f"); // idempotent
}

TEST(ThreadPool, RunsSubmittedJobs) {
  std::atomic<int> Count{0};
  std::mutex M;
  std::condition_variable Cv;
  ThreadPool Pool;
  // Notify under the mutex: the waiter can then only observe the final
  // count after the notifier released it, so the condition variable is
  // never destroyed mid-notify and the wakeup cannot be lost.
  for (int I = 0; I != 20; ++I)
    Pool.submit([&] {
      std::lock_guard<std::mutex> Lock(M);
      if (Count.fetch_add(1) + 1 == 20)
        Cv.notify_one();
    });
  std::unique_lock<std::mutex> Lock(M);
  Cv.wait(Lock, [&] { return Count.load() == 20; });
  EXPECT_EQ(Count.load(), 20);
}

TEST(ThreadPool, ReusesIdleThreads) {
  ThreadPool Pool;
  std::atomic<int> Count{0};
  auto RunBatch = [&](int N) {
    std::mutex M;
    std::condition_variable Cv;
    int Started = 0, Done = 0; // guarded by M
    for (int I = 0; I != N; ++I)
      Pool.submit([&] {
        Count.fetch_add(1);
        std::unique_lock<std::mutex> Lock(M);
        // Hold each job until the whole batch has started, so a batch of
        // N always occupies N workers: with fast jobs the first batch
        // could finish on fewer, and the second would then rightly spawn.
        ++Started;
        Cv.notify_all();
        Cv.wait(Lock, [&] { return Started == N; });
        ++Done;
        Cv.notify_all();
      });
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Done == N; });
  };
  RunBatch(4);
  const size_t AfterFirst = Pool.threadsCreated();
  // Give workers a moment to park.
  while (Pool.idleThreads() < AfterFirst)
    std::this_thread::yield();
  RunBatch(4);
  // Sequential batches reuse parked workers instead of spawning anew.
  EXPECT_LE(Pool.threadsCreated(), AfterFirst + 1);
  EXPECT_EQ(Count.load(), 8);
}

TEST(ThreadPool, BurstOfBlockingJobsAllStart) {
  // Regression test: DoPE jobs are long-running task loops, so every
  // submitted job must get its own thread even when several jobs are
  // submitted in a burst while a worker is idle. The old spawn condition
  // (spawn only when no worker is idle) parked a burst behind a single
  // idle worker and deadlocked the region.
  //
  // The burst jobs block on AllStarted past the main thread's wait, so
  // their shared state must outlive the pool: declare it first and let
  // the pool's joining destructor run before it is torn down.
  constexpr int Burst = 4;
  std::atomic<int> Started{0};
  std::mutex M;
  std::condition_variable AllStarted;
  ThreadPool Pool;

  // Park one idle worker.
  {
    std::mutex ParkM;
    std::condition_variable ParkCv;
    std::atomic<bool> Ran{false};
    Pool.submit([&] {
      std::lock_guard<std::mutex> Lock(ParkM);
      Ran.store(true);
      ParkCv.notify_one();
    });
    std::unique_lock<std::mutex> Lock(ParkM);
    ParkCv.wait(Lock, [&] { return Ran.load(); });
    while (Pool.idleThreads() == 0)
      std::this_thread::yield();
  }

  // Burst-submit 4 jobs that all block until every one of them started.
  for (int I = 0; I != Burst; ++I)
    Pool.submit([&] {
      std::unique_lock<std::mutex> Lock(M);
      if (Started.fetch_add(1) + 1 == Burst)
        AllStarted.notify_all();
      AllStarted.wait(Lock, [&] { return Started.load() == Burst; });
    });

  std::unique_lock<std::mutex> Lock(M);
  const bool Ok = AllStarted.wait_for(
      Lock, std::chrono::seconds(30), [&] { return Started.load() == Burst; });
  EXPECT_TRUE(Ok) << "only " << Started.load() << "/" << Burst
                  << " burst jobs started";
  AllStarted.notify_all();
}

TEST(ThreadPool, EscapedExceptionsHitErrorHookNotTerminate) {
  // Failure domain: a job that lets an exception escape must not take the
  // process down (an escaped exception in a std::thread calls
  // std::terminate). The pool catches it, counts it, and reports it
  // through the error hook; the worker survives to run later jobs.
  ThreadPool Pool;
  std::mutex M;
  std::condition_variable Cv;
  std::vector<std::string> Reports;
  Pool.setErrorHook([&](const std::string &What) {
    std::lock_guard<std::mutex> Lock(M);
    Reports.push_back(What);
    Cv.notify_one();
  });

  Pool.submit([] { throw std::runtime_error("job exploded"); });
  Pool.submit([] { throw 42; }); // non-standard exception
  {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Reports.size() == 2; });
  }
  EXPECT_EQ(Pool.escapedExceptions(), 2u);
  {
    std::lock_guard<std::mutex> Lock(M);
    EXPECT_NE(std::find(Reports.begin(), Reports.end(), "job exploded"),
              Reports.end());
  }

  // The surviving workers still run jobs.
  std::atomic<bool> Ran{false};
  Pool.submit([&] {
    std::lock_guard<std::mutex> Lock(M);
    Ran.store(true);
    Cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Ran.load(); });
  }
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPool, NestedSubmission) {
  std::atomic<int> Count{0};
  std::mutex M;
  std::condition_variable Cv;
  ThreadPool Pool;
  Pool.submit([&] {
    for (int I = 0; I != 5; ++I)
      Pool.submit([&] {
        std::lock_guard<std::mutex> Lock(M);
        if (Count.fetch_add(1) + 1 == 5)
          Cv.notify_one();
      });
  });
  std::unique_lock<std::mutex> Lock(M);
  Cv.wait(Lock, [&] { return Count.load() == 5; });
  EXPECT_EQ(Count.load(), 5);
}

TEST(TaskMetrics, RecordsExecTimeEma) {
  TaskMetrics M(0.5);
  M.recordExecTime(1.0);
  EXPECT_DOUBLE_EQ(M.execTime(), 1.0);
  M.recordExecTime(3.0);
  EXPECT_DOUBLE_EQ(M.execTime(), 2.0);
  EXPECT_EQ(M.invocations(), 2u);
  EXPECT_DOUBLE_EQ(M.totalBusySeconds(), 4.0);
}

TEST(TaskMetrics, RecordsLoad) {
  TaskMetrics M;
  M.recordLoad(10.0);
  M.recordLoad(20.0);
  EXPECT_DOUBLE_EQ(M.lastLoad(), 20.0);
  EXPECT_GT(M.load(), 10.0);
  EXPECT_LT(M.load(), 20.0);
}

TEST(TaskMetrics, ResetClears) {
  TaskMetrics M;
  M.recordExecTime(1.0);
  M.recordLoad(5.0);
  M.reset();
  EXPECT_DOUBLE_EQ(M.execTime(), 0.0);
  EXPECT_DOUBLE_EQ(M.load(), 0.0);
  EXPECT_EQ(M.invocations(), 0u);
}

} // namespace
