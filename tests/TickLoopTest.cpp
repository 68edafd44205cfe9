//===- tests/TickLoopTest.cpp - Tick/event order differential test ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// TickLoop must dispatch ticks and events in exactly the order a queue
// holding the ticks as self-re-arming events would. Each seed builds a
// random scenario on a 1/64 s grid, so ties are frequent, and runs it
// twice: ticks as events on a bare EventQueue, and ticks in a TickLoop.
// The two dispatch logs must be identical.
//
//===----------------------------------------------------------------------===//

#include "sim/TickLoop.h"

#include "TestHelpers.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

using namespace dope;

namespace {

constexpr double Grid = 1.0 / 64.0;
constexpr int TickA = -1;
constexpr int TickB = -2;

/// (virtual time, id); ids >= 0 are events, TickA/TickB the ticks.
using DispatchLog = std::vector<std::pair<double, int>>;

/// One random scenario: events that spawn and cancel events, tick A
/// that sometimes schedules an event at its own time, and tick B that
/// cancels events and stops after StopAfter runs.
struct Scenario {
  explicit Scenario(uint64_t Seed) : Draw(Seed) {
    IntervalA = Grid * static_cast<double>(1 + Draw.uniformInt(24));
    IntervalB = Grid * static_cast<double>(1 + Draw.uniformInt(24));
    StopAfter = 1 + Draw.uniformInt(40);
    // A third of the runs end at the time bound, with events still due.
    EndTime = Draw.uniformInt(3) == 0
                  ? Grid * static_cast<double>(64 + Draw.uniformInt(192))
                  : 1e6;
  }

  void start(EventQueue &Q) {
    this->Q = &Q;
    for (int I = 0; I != 6; ++I)
      spawn(Grid * static_cast<double>(Draw.uniformInt(64)));
  }

  void spawn(double Delay) {
    if (NextId >= MaxEvents)
      return;
    const int Id = NextId++;
    Ids.push_back(Q->scheduleAfter(Delay, [this, Id] { onEvent(Id); }));
  }

  void cancelOne() {
    if (!Ids.empty())
      Q->cancel(Ids[Draw.uniformInt(Ids.size())]);
  }

  void onEvent(int Id) {
    Log.emplace_back(Q->now(), Id);
    const uint64_t Children = Draw.uniformInt(3);
    for (uint64_t C = 0; C != Children; ++C)
      spawn(Grid * static_cast<double>(Draw.uniformInt(33)));
    if (Draw.uniformInt(8) == 0)
      cancelOne();
  }

  bool tickA() {
    Log.emplace_back(Q->now(), TickA);
    if (Draw.uniformInt(3) == 0)
      spawn(0.0); // an event at the tick's own time
    return true;
  }

  bool tickB() {
    Log.emplace_back(Q->now(), TickB);
    if (Draw.uniformInt(4) == 0)
      cancelOne();
    return ++RunsB < StopAfter;
  }

  bool done() const { return Log.size() >= MaxLog; }

  static constexpr int MaxEvents = 400;
  static constexpr size_t MaxLog = 600;

  Rng Draw;
  EventQueue *Q = nullptr;
  double IntervalA = 0.0, IntervalB = 0.0, EndTime = 0.0;
  uint64_t StopAfter = 0, RunsB = 0;
  int NextId = 0;
  std::vector<EventId> Ids;
  DispatchLog Log;
};

/// Ticks as self-re-arming events on a bare queue: the order TickLoop
/// must reproduce.
DispatchLog runQueued(uint64_t Seed, double &EndNow) {
  Scenario S(Seed);
  EventQueue Q;
  S.start(Q);
  std::function<void()> ArmA = [&] {
    if (S.tickA())
      Q.scheduleAfter(S.IntervalA, [&ArmA] { ArmA(); });
  };
  std::function<void()> ArmB = [&] {
    if (S.tickB())
      Q.scheduleAfter(S.IntervalB, [&ArmB] { ArmB(); });
  };
  Q.scheduleAfter(S.IntervalA, [&ArmA] { ArmA(); });
  Q.scheduleAfter(S.IntervalB, [&ArmB] { ArmB(); });
  while (!S.done() && Q.now() < S.EndTime)
    if (!Q.step(S.EndTime))
      break;
  EndNow = Q.now();
  return S.Log;
}

DispatchLog runTickLoop(uint64_t Seed, double &EndNow, bool &Drained) {
  Scenario S(Seed);
  EventQueue Q;
  S.start(Q);
  TickLoop Loop(Q, nullptr);
  Loop.addTick(S.IntervalA, [&S] { return S.tickA(); });
  Loop.addTick(S.IntervalB, [&S] { return S.tickB(); });
  Loop.run(S.EndTime, [&S] { return S.done(); });
  EndNow = Q.now();
  Drained = Q.empty();
  return S.Log;
}

TEST(TickLoop, DispatchOrderMatchesTicksAsQueuedEvents) {
  const uint64_t First = testing_helpers::loggedSeed(1);
  unsigned HitEndTime = 0, TickAtTie = 0, TickedOnEmptyQueue = 0;
  for (uint64_t Seed = First; Seed != First + 256; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    double QueuedEnd = 0.0, LoopEnd = 0.0;
    bool Drained = false;
    const DispatchLog Queued = runQueued(Seed, QueuedEnd);
    const DispatchLog Looped = runTickLoop(Seed, LoopEnd, Drained);
    ASSERT_EQ(Queued, Looped);
    EXPECT_EQ(QueuedEnd, LoopEnd);
    const Scenario S(Seed);
    HitEndTime += S.EndTime < 1e6 && LoopEnd == S.EndTime;
    TickedOnEmptyQueue += Drained && Looped.back().second < 0;
    for (size_t I = 1; I < Looped.size(); ++I)
      TickAtTie +=
          Looped[I].second < 0 && Looped[I - 1].first == Looped[I].first;
  }
  // The scenarios exercise what they are meant to: runs cut at the time
  // bound by an item due exactly then, ticks running on after the queue
  // drained, and ticks tied with other items.
  EXPECT_GT(HitEndTime, 0u);
  EXPECT_GT(TickedOnEmptyQueue, 0u);
  EXPECT_GT(TickAtTie, 100u);
}

} // namespace
