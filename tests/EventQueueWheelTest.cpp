//===- tests/EventQueueWheelTest.cpp - Wheel vs reference heap -------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential property tests for the timing-wheel EventQueue against
/// ReferenceEventQueue (the pre-wheel binary heap, kept verbatim as the
/// oracle). Both are driven through identical randomized scripts of
/// schedule/cancel/run interleavings; the dispatch logs — (label, time)
/// pairs in firing order — must match exactly, which pins down the
/// contract the simulators and golden traces depend on: time order with
/// FIFO tie-break, cancellation as a precise no-op on fired/stale ids,
/// and identical behavior across near, wheel, and overflow horizons.
///
//===----------------------------------------------------------------------===//

#include "ReferenceEventQueue.h"
#include "sim/EventQueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

using namespace dope;

namespace {

using DispatchLog = std::vector<std::pair<int, double>>;

/// Runs a deterministic schedule/cancel/run script derived from \p Seed.
/// Every RNG draw depends only on script position, never on queue state,
/// so both implementations observe byte-identical call sequences.
template <typename QueueT> DispatchLog runScript(uint64_t Seed) {
  QueueT Q;
  std::mt19937_64 Rng(Seed);
  std::vector<uint64_t> Ids; // includes fired/cancelled (stale) ids
  DispatchLog Log;
  int NextLabel = 0;

  for (int Round = 0; Round != 400; ++Round) {
    const uint64_t Op = Rng() % 10;
    if (Op < 5) {
      const unsigned Burst = 1 + static_cast<unsigned>(Rng() % 4);
      for (unsigned I = 0; I != Burst; ++I) {
        double Delay = 0.0;
        switch (Rng() % 6) {
        case 0:
          Delay = 0.0; // same-instant: exercises the FIFO tie-break
          break;
        case 1:
          Delay = static_cast<double>(Rng() % 1000) * 1e-6; // sub-tick
          break;
        case 2:
          Delay = static_cast<double>(Rng() % 1000) * 1e-3; // levels 0-1
          break;
        case 3:
          Delay = static_cast<double>(1 + Rng() % 100); // levels 1-2
          break;
        case 4:
          Delay = 3600.0 + static_cast<double>(Rng() % 10000); // level 3
          break;
        case 5:
          // Beyond the 2^24-tick wheel horizon: overflow heap.
          Delay = 20000.0 + static_cast<double>(Rng() % 3) * 10000.0;
          break;
        }
        const int Label = NextLabel++;
        Ids.push_back(Q.scheduleAfter(
            Delay, [&Log, &Q, Label] { Log.emplace_back(Label, Q.now()); }));
      }
    } else if (Op < 8 && !Ids.empty()) {
      // Cancel by position: the same logical event in both queues, and
      // often one that already fired or was already cancelled — both
      // implementations must treat that as a precise no-op.
      Q.cancel(Ids[Rng() % Ids.size()]);
    } else {
      const double Window =
          static_cast<double>(Rng() % 2000) * 1e-3 *
          static_cast<double>(1 + Rng() % 50);
      Q.runUntil(Q.now() + Window);
    }
  }
  Q.runUntil(1e9); // drain everything, overflow horizons included
  // Only the wheel guarantees live-count accuracy here: the reference
  // keeps the pre-wheel quirk where cancelling an already-fired id
  // spuriously decrements its live counter (generation tags are exactly
  // what fixed this). Dispatch order — what the goldens depend on — is
  // compared for both.
  if constexpr (std::is_same_v<QueueT, EventQueue>) {
    EXPECT_TRUE(Q.empty());
    EXPECT_EQ(Q.pendingEvents(), 0u);
  }
  return Log;
}

TEST(EventQueueWheel, MatchesReferenceAcrossSeeds) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    const DispatchLog Wheel = runScript<EventQueue>(Seed);
    const DispatchLog Heap = runScript<ReferenceEventQueue>(Seed);
    ASSERT_EQ(Wheel.size(), Heap.size()) << "seed " << Seed;
    for (size_t I = 0; I != Wheel.size(); ++I) {
      EXPECT_EQ(Wheel[I].first, Heap[I].first)
          << "seed " << Seed << " position " << I;
      EXPECT_DOUBLE_EQ(Wheel[I].second, Heap[I].second)
          << "seed " << Seed << " position " << I;
    }
  }
}

TEST(EventQueueWheel, ScriptIsDeterministic) {
  EXPECT_EQ(runScript<EventQueue>(7), runScript<EventQueue>(7));
}

TEST(EventQueueWheel, SameTickEventsFireInStableTimeOrder) {
  // Many events inside one tick (delays below the 2^-10 s quantum) with
  // repeated exact times: dispatch must be the stable sort of the
  // schedule sequence by time (FIFO tie-break).
  EventQueue Q;
  std::vector<int> Order;
  std::vector<std::pair<double, int>> Scheduled;
  for (int I = 0; I != 100; ++I) {
    const double Delay = 0.0004 + 1e-7 * static_cast<double>(I % 3);
    Scheduled.emplace_back(Delay, I);
    Q.scheduleAfter(Delay, [&Order, I] { Order.push_back(I); });
  }
  Q.runUntil(1.0);
  ASSERT_EQ(Order.size(), 100u);
  std::stable_sort(
      Scheduled.begin(), Scheduled.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });
  for (size_t I = 0; I != Scheduled.size(); ++I)
    EXPECT_EQ(Order[I], Scheduled[I].second) << "position " << I;
}

TEST(EventQueueWheel, FarFutureOverflowMigratesInward) {
  EventQueue Q;
  std::vector<int> Order;
  Q.scheduleAt(50000.0, [&Order] { Order.push_back(2); }); // overflow
  Q.scheduleAt(0.5, [&Order] { Order.push_back(0); });     // wheel
  Q.scheduleAt(40000.0, [&Order] { Order.push_back(1); }); // overflow
  Q.runUntil(60000.0);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueueWheel, CancelAfterFireIsNoopOnRecycledNode) {
  // After an event fires, its slab node is recycled; the stale id's
  // generation no longer matches, so cancelling it must not disturb the
  // node's new occupant.
  EventQueue Q;
  bool FiredA = false, FiredB = false;
  const EventId A = Q.scheduleAfter(0.1, [&FiredA] { FiredA = true; });
  Q.runUntil(1.0);
  EXPECT_TRUE(FiredA);
  const EventId B = Q.scheduleAfter(0.1, [&FiredB] { FiredB = true; });
  Q.cancel(A); // stale: must not cancel B even if it reuses A's node
  Q.runUntil(2.0);
  EXPECT_TRUE(FiredB);
  (void)B;
}

TEST(EventQueueWheel, CancelledOverflowEventReclaimed) {
  EventQueue Q;
  const EventId Far = Q.scheduleAfter(30000.0, [] { FAIL(); });
  EXPECT_EQ(Q.pendingEvents(), 1u);
  Q.cancel(Far);
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.runUntil(40000.0), 0u);
}

/// The wheel horizon in seconds: 2^24 ticks at 1024 ticks/second. Events
/// past now + Horizon live in the overflow heap until the wheel turns
/// far enough to admit them.
constexpr double HorizonSeconds = 16777216.0 / 1024.0; // 16384 s

/// Differential script that *crosses* the overflow horizon: clusters of
/// events straddle now + Horizon at schedule time, then time advances in
/// windows that carry the horizon past each cluster, so events migrate
/// from the overflow heap into the wheel mid-run. Firing callbacks
/// schedule again near the (moved) horizon, exercising admission from a
/// non-zero wheel position.
template <typename QueueT> DispatchLog runHorizonCrossingScript() {
  QueueT Q;
  DispatchLog Log;
  int NextLabel = 0;
  auto note = [&Log, &Q](int Label) { Log.emplace_back(Label, Q.now()); };

  // Straddle the horizon as seen from t=0: one tick short of it, exactly
  // at it, one tick past it, and deep into overflow territory.
  const double Tick = 1.0 / 1024.0;
  for (const double At :
       {HorizonSeconds - Tick, HorizonSeconds, HorizonSeconds + Tick,
        2.0 * HorizonSeconds, 3.0 * HorizonSeconds + 0.25}) {
    const int Label = NextLabel++;
    Q.scheduleAt(At, [&, Label] {
      note(Label);
      // Reschedule relative to the new now: this target is again just
      // beyond the current horizon, so it must take the overflow path
      // even though the wheel has rotated.
      const int Again = 100 + Label;
      Q.scheduleAfter(HorizonSeconds + Tick, [&note, Again] { note(Again); });
    });
  }
  // Advance in windows that each cross one cluster's admission boundary.
  for (int Step = 1; Step <= 10; ++Step)
    Q.runUntil(static_cast<double>(Step) * 0.45 * HorizonSeconds);
  Q.runUntil(1e9);
  return Log;
}

TEST(EventQueueWheel, DifferentialDispatchAcrossOverflowHorizon) {
  const DispatchLog Wheel = runHorizonCrossingScript<EventQueue>();
  const DispatchLog Heap = runHorizonCrossingScript<ReferenceEventQueue>();
  ASSERT_EQ(Wheel.size(), 10u);
  ASSERT_EQ(Wheel.size(), Heap.size());
  for (size_t I = 0; I != Wheel.size(); ++I) {
    EXPECT_EQ(Wheel[I].first, Heap[I].first) << "position " << I;
    EXPECT_DOUBLE_EQ(Wheel[I].second, Heap[I].second) << "position " << I;
  }
}

/// Differential cancellation around the horizon: events scheduled into
/// the overflow heap are cancelled (a) while still in the heap, (b)
/// after time has advanced enough that the survivor set migrated into
/// the wheel — the stale ids must stay precise no-ops in both
/// implementations and the survivors must fire identically.
template <typename QueueT> DispatchLog runHorizonCancelScript() {
  QueueT Q;
  DispatchLog Log;
  std::vector<uint64_t> Ids;
  for (int I = 0; I != 12; ++I) {
    const double At = HorizonSeconds + 100.0 * static_cast<double>(I + 1);
    Ids.push_back(Q.scheduleAt(
        At, [&Log, &Q, I] { Log.emplace_back(I, Q.now()); }));
  }
  // (a) Cancel every third event while it still sits in overflow.
  for (size_t I = 0; I < Ids.size(); I += 3)
    Q.cancel(Ids[I]);
  // Advance past the horizon so the survivors migrate into the wheel,
  // but stop short of the first firing time.
  Q.runUntil(HorizonSeconds + 50.0);
  // (b) Cancel every fourth event post-migration, plus re-cancel an
  // already-cancelled id (stale: must be a no-op, not a crash or a
  // cancellation of a recycled node).
  for (size_t I = 0; I < Ids.size(); I += 4)
    Q.cancel(Ids[I]);
  Q.cancel(Ids[0]);
  Q.runUntil(1e9);
  return Log;
}

TEST(EventQueueWheel, DifferentialCancelWithinOverflowHorizon) {
  const DispatchLog Wheel = runHorizonCancelScript<EventQueue>();
  const DispatchLog Heap = runHorizonCancelScript<ReferenceEventQueue>();
  ASSERT_EQ(Wheel, Heap);
  // Survivors: indices not divisible by 3 or 4.
  std::vector<int> Fired;
  for (const auto &[Label, Time] : Wheel)
    Fired.push_back(Label);
  EXPECT_EQ(Fired, (std::vector<int>{1, 2, 5, 7, 10, 11}));
}

TEST(EventQueueWheel, HeavyChurnStaysConsistent) {
  // Self-rescheduling load with periodic cancellation: pendingEvents()
  // must drop to zero once the churn stops rescheduling.
  EventQueue Q;
  int Budget = 20000;
  std::mt19937_64 Rng(99);
  struct Actor {
    EventQueue &Q;
    int &Budget;
    std::mt19937_64 &Rng;
    void fire() {
      if (--Budget <= 0)
        return;
      const double Delay = 1e-4 * static_cast<double>(1 + Rng() % 5000);
      Actor Self{Q, Budget, Rng};
      Q.scheduleAfter(Delay, [Self]() mutable { Self.fire(); });
    }
  };
  for (int I = 0; I != 16; ++I) {
    Actor A{Q, Budget, Rng};
    Q.scheduleAfter(1e-3 * I, [A]() mutable { A.fire(); });
  }
  Q.runUntil(1e9);
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.pendingEvents(), 0u);
  EXPECT_LE(Budget, 0);
}

} // namespace
