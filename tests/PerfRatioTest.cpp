//===- tests/PerfRatioTest.cpp - Same-process speed ratios ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speed checks that hold on any machine, because each one compares two
/// implementations timed back to back in one process and never a rate
/// against a number recorded elsewhere:
///
///   * event core: on a churn workload the timing-wheel EventQueue
///     dispatches at least 1.5x as many events per second as
///     ReferenceEventQueue, the pre-wheel heap, and both dispatch the
///     same number of events;
///   * tracer: a thread that has recorded into 20k tracers since
///     destroyed records at least 1/1.5 as fast as a fresh thread.
///
/// The tests carry the `perf` ctest label and RUN_SERIAL, so no other
/// test competes for the cores while they time. Sanitizer builds skip
/// the label (`ctest -LE perf`): their slowdown is not uniform across
/// the two sides of a ratio.
///
//===----------------------------------------------------------------------===//

#include "ReferenceEventQueue.h"
#include "sim/EventQueue.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

using namespace dope;

namespace {

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point Start) {
  return std::chrono::duration<double>(SteadyClock::now() - Start).count();
}

/// The floor every speedup must hold, and the ceiling of the one
/// slowdown.
constexpr double MinSpeedup = 1.5;

//===----------------------------------------------------------------------===//
// Event-core churn workload
//===----------------------------------------------------------------------===//

/// A deterministic event-queue stress workload, templated over the queue
/// implementation so the wheel and the reference heap run identical
/// schedules. A fixed set of actors self-reschedule with xorshift-driven
/// delays spanning wheel levels 0-1 (0.5 ms .. 0.5 s); every 64th firing
/// cancels and re-arms a +60 s horizon event (levels 2-3, the cancel
/// path); every 1024th firing cancels and re-arms a +20000 s event
/// (beyond the 2^24-tick wheel horizon, the overflow path).
template <typename QueueT> class ChurnBench {
public:
  explicit ChurnBench(uint64_t TargetFirings)
      : Target(TargetFirings), HorizonIds(Actors, 0), FarIds(Actors, 0) {}

  /// Runs the workload to completion; returns total dispatched events.
  uint64_t run() {
    for (unsigned A = 0; A != Actors; ++A) {
      HorizonIds[A] = Q.scheduleAfter(60.0, [] {});
      const unsigned Actor = A;
      Q.scheduleAfter(nextDelay(), [this, Actor] { fire(Actor); });
    }
    return Q.runUntil(1e18);
  }

private:
  void fire(unsigned Actor) {
    ++Fired;
    if ((Fired & 63) == 0) {
      Q.cancel(HorizonIds[Actor]);
      HorizonIds[Actor] = Q.scheduleAfter(60.0, [] {});
    }
    if ((Fired & 1023) == 0) {
      Q.cancel(FarIds[Actor]);
      FarIds[Actor] = Q.scheduleAfter(20000.0, [] {});
    }
    if (Fired < Target)
      Q.scheduleAfter(nextDelay(), [this, Actor] { fire(Actor); });
  }

  double nextDelay() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return 0.0005 * static_cast<double>(1 + (Rng % 1000));
  }

  /// Sized so the steady-state pending set (~2 events per actor) matches
  /// a heavily loaded simulator, where dispatch cost actually matters.
  static constexpr unsigned Actors = 4096;

  QueueT Q;
  uint64_t Target;
  uint64_t Fired = 0;
  uint64_t Rng = 0x9e3779b97f4a7c15ull;
  std::vector<uint64_t> HorizonIds;
  std::vector<uint64_t> FarIds;
};

/// One timed run of the churn workload; returns events/second.
template <typename QueueT>
double churnEventsPerSec(uint64_t TargetFirings, uint64_t &Dispatched) {
  ChurnBench<QueueT> Bench(TargetFirings);
  const auto Start = SteadyClock::now();
  Dispatched = Bench.run();
  const double Sec = secondsSince(Start);
  return Sec > 0.0 ? static_cast<double>(Dispatched) / Sec : 0.0;
}

//===----------------------------------------------------------------------===//
// Tracer lookups after many dead tracers
//===----------------------------------------------------------------------===//

/// Records per second into one tracer, on a new thread that first
/// recorded once into each of \p DeadTracers tracers and destroyed them.
/// Each tracer leaves a thread-local slot behind on the thread, which a
/// record's buffer lookup scans until it is pruned. The first record
/// into the live tracer, the lookup miss, is not timed.
double recordsPerSecAfterDeadTracers(unsigned DeadTracers, unsigned Records) {
  double Rate = 0.0;
  std::thread Worker([&] {
    for (unsigned I = 0; I != DeadTracers; ++I) {
      Tracer Dead(16);
      Dead.recordAt(0.0, TraceKind::Counter, "dead");
    }
    Tracer Live(Records + 1);
    Live.recordAt(0.0, TraceKind::Counter, "live");
    const auto Start = SteadyClock::now();
    for (unsigned I = 0; I != Records; ++I)
      Live.recordAt(static_cast<double>(I), TraceKind::Counter, "live", I);
    const double Sec = secondsSince(Start);
    Rate = Sec > 0.0 ? Records / Sec : 0.0;
  });
  Worker.join();
  return Rate;
}

} // namespace

TEST(PerfRatio, WheelDispatchesChurnFasterThanHeap) {
  constexpr uint64_t Firings = 200000;
  constexpr unsigned Reps = 5;
  // Best of Reps for each side: interference only ever slows a run down,
  // so the best run is the one closest to what the code can do. The reps
  // alternate, so a burst of load from outside the process cannot land
  // on one side only.
  uint64_t WheelDispatched = 0, HeapDispatched = 0;
  double Wheel = 0.0, Heap = 0.0;
  for (unsigned R = 0; R != Reps; ++R) {
    Wheel = std::max(
        Wheel, churnEventsPerSec<EventQueue>(Firings, WheelDispatched));
    Heap = std::max(Heap, churnEventsPerSec<ReferenceEventQueue>(
                              Firings, HeapDispatched));
  }
  EXPECT_EQ(WheelDispatched, HeapDispatched);
  ASSERT_GT(Heap, 0.0);
  const double Speedup = Wheel / Heap;
  std::printf("[ RATIO    ] wheel/heap %.2f (wheel %.3g, heap %.3g "
              "events/s)\n",
              Speedup, Wheel, Heap);
  EXPECT_GE(Speedup, MinSpeedup);
}

TEST(PerfRatio, DeadTracersDoNotSlowRecording) {
  constexpr unsigned DeadTracers = 20000;
  constexpr unsigned Records = 20000;
  constexpr unsigned Reps = 5;
  // Best of Reps per side, alternating, as in the tests above.
  double Aged = 0.0, Fresh = 0.0;
  for (unsigned R = 0; R != Reps; ++R) {
    Aged = std::max(Aged, recordsPerSecAfterDeadTracers(DeadTracers, Records));
    Fresh = std::max(Fresh, recordsPerSecAfterDeadTracers(0, Records));
  }
  ASSERT_GT(Aged, 0.0);
  const double Slowdown = Fresh / Aged;
  std::printf("[ RATIO    ] fresh/aged %.2f (fresh %.3g, aged %.3g "
              "records/s)\n",
              Slowdown, Fresh, Aged);
  EXPECT_LE(Slowdown, MinSpeedup);
}
