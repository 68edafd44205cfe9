//===- tests/BuildersTest.cpp - High-level builder tests ---------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Builders.h"

#include "mechanisms/Tbf.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <set>
#include <string>

using namespace dope;

namespace {

TEST(Builders, TypedPipelineEndToEnd) {
  TaskGraph Graph;
  std::atomic<int> Next{0};
  std::mutex OutMutex;
  std::set<std::string> Outputs;

  PipelineBuilder B(Graph);
  B.source<int>("gen", [&]() -> std::optional<int> {
    const int I = Next.fetch_add(1);
    if (I >= 100)
      return std::nullopt;
    return I;
  });
  B.stage<int, long>("square",
                     [](int X) { return static_cast<long>(X) * X; });
  B.stage<long, std::string>(
      "render", [](long X) { return std::to_string(X); },
      /*Parallel=*/true);
  B.sink<std::string>("collect", [&](std::string S) {
    std::lock_guard<std::mutex> Lock(OutMutex);
    Outputs.insert(std::move(S));
  });
  ParDescriptor *Pipe = B.build();
  ASSERT_EQ(Pipe->size(), 4u);
  EXPECT_EQ(Pipe->tasks()[0]->kind(), TaskKind::Sequential);
  EXPECT_EQ(Pipe->tasks()[1]->kind(), TaskKind::Parallel);
  EXPECT_EQ(Pipe->tasks()[3]->kind(), TaskKind::Sequential);

  DopeOptions Opts;
  Opts.MaxThreads = 4;
  RegionConfig Config = defaultConfig(*Pipe);
  Config.Tasks[1].Extent = 2;
  Opts.InitialConfig = Config;
  Dope::destroy(Dope::create(Pipe, std::move(Opts)));

  EXPECT_EQ(Outputs.size(), 100u);
  EXPECT_TRUE(Outputs.count("0"));
  EXPECT_TRUE(Outputs.count("9801")); // 99^2
}

TEST(Builders, PipelineSurvivesReconfiguration) {
  TaskGraph Graph;
  std::atomic<int> Next{0};
  std::atomic<long long> Sum{0};

  PipelineBuilder B(Graph);
  B.source<int>("gen", [&]() -> std::optional<int> {
    const int I = Next.load();
    if (I >= 3000)
      return std::nullopt;
    Next.store(I + 1);
    return I;
  });
  B.stage<int, int>("work", [](int X) {
    testing_helpers::spin(500);
    return X;
  });
  B.sink<int>("add", [&](int X) { Sum.fetch_add(X); });
  ParDescriptor *Pipe = B.build();

  DopeOptions Opts;
  Opts.MaxThreads = 4; // waterfill grows the parallel stage -> reconfig
  Opts.MonitorIntervalSeconds = 0.002;
  Opts.MinReconfigIntervalSeconds = 0.002;
  Opts.Mech = std::make_unique<TbfMechanism>();
  std::unique_ptr<Dope> D = Dope::create(Pipe, std::move(Opts));
  D->wait();
  // Reconfiguration must never lose or duplicate an item.
  EXPECT_EQ(Sum.load(), 2999LL * 3000 / 2);
}

TEST(Builders, BoundedQueuesGiveBackpressure) {
  // With queueCapacity(k), a fast source cannot race more than k items
  // ahead of the consumer: the peak observed queue occupancy is bounded.
  TaskGraph Graph;
  std::atomic<int> Next{0};
  std::atomic<long long> Sum{0};
  std::atomic<int> PeakLoad{0};

  PipelineBuilder B(Graph);
  B.queueCapacity(8);
  B.source<int>("gen", [&]() -> std::optional<int> {
    const int I = Next.fetch_add(1);
    if (I >= 500)
      return std::nullopt;
    return I;
  });
  B.sink<int>("add", [&](int X) {
    testing_helpers::spin(2000);
    Sum.fetch_add(X);
  });
  ParDescriptor *Pipe = B.build();

  // Sample the sink's load callback (its input queue occupancy) from a
  // monitor-style thread while the pipeline runs.
  const Task *Sink = Pipe->tasks()[1];
  std::atomic<bool> Done{false};
  std::thread Sampler([&] {
    while (!Done.load()) {
      PeakLoad.store(std::max(PeakLoad.load(),
                              static_cast<int>(Sink->sampleLoad())));
      std::this_thread::yield();
    }
  });

  DopeOptions Opts;
  Opts.MaxThreads = 2;
  std::unique_ptr<Dope> D = Dope::create(Pipe, std::move(Opts));
  D->wait();
  Done.store(true);
  Sampler.join();

  EXPECT_EQ(Sum.load(), 499LL * 500 / 2);
  EXPECT_LE(PeakLoad.load(), 8);
}

/// Alternates between two configurations every decision, maximizing
/// suspend/drain churn.
class ThrashMechanism : public Mechanism {
public:
  ThrashMechanism(RegionConfig A, RegionConfig B)
      : A(std::move(A)), B(std::move(B)) {}
  std::string name() const override { return "Thrash"; }
  std::optional<RegionConfig>
  reconfigure(const ParDescriptor &, const RegionSnapshot &,
              const RegionConfig &Current, const MechanismContext &)
      override {
    return Current == A ? B : A;
  }

private:
  RegionConfig A, B;
};

TEST(Builders, NoItemLossUnderReconfigurationChurn) {
  // Regression test: with stage extent > 1, the first replica to see
  // end-of-input must not close the output queue while a sibling still
  // holds an in-flight item. The FiniCB-based drain protocol guarantees
  // this; this test thrashes configurations to hunt for the race.
  //
  // Conservation must hold on every attempt; whether a reconfiguration
  // actually lands within one short run depends on scheduler timing, so
  // the churn requirement is satisfied across a few attempts.
  uint64_t TotalReconfigs = 0;
  for (int Attempt = 0; Attempt != 5 && TotalReconfigs < 2; ++Attempt) {
  TaskGraph Graph;
  std::atomic<int> Next{0};
  std::atomic<long long> Sum{0};
  constexpr int N = 4000;

  PipelineBuilder B(Graph);
  // The source burns comparable CPU to the stage so it stays alive long
  // enough for suspensions to land on it (an unthrottled source would
  // race through the unbounded queue and finish before the first
  // decision).
  B.source<int>("gen", [&]() -> std::optional<int> {
    const int I = Next.load();
    if (I >= N)
      return std::nullopt;
    testing_helpers::spin(3000);
    Next.store(I + 1);
    return I;
  });
  B.stage<int, int>("work", [](int X) {
    testing_helpers::spin(3000);
    return X;
  });
  B.sink<int>("add", [&](int X) { Sum.fetch_add(X); });
  ParDescriptor *Pipe = B.build();

  RegionConfig Narrow = defaultConfig(*Pipe);
  RegionConfig Wide = Narrow;
  Wide.Tasks[1].Extent = 3;

  DopeOptions Opts;
  Opts.MaxThreads = 5;
  Opts.MonitorIntervalSeconds = 0.001;
  Opts.MinReconfigIntervalSeconds = 0.001;
  Opts.InitialConfig = Narrow;
  Opts.Mech = std::make_unique<ThrashMechanism>(Narrow, Wide);
  std::unique_ptr<Dope> D = Dope::create(Pipe, std::move(Opts));
  D->wait();
  ASSERT_EQ(Sum.load(), static_cast<long long>(N - 1) * N / 2);
  TotalReconfigs += D->reconfigurationCount();
  }
  EXPECT_GE(TotalReconfigs, 2u);
}

} // namespace
