//===- tests/PerfRatioTest.cpp - Same-process speed ratios ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speed checks that hold on any machine, because each one compares two
/// runs timed back to back in one process and never a rate against a
/// number recorded elsewhere. The tracer check: a thread that has
/// recorded into 20k tracers since destroyed records at least 1/1.5 as
/// fast as a fresh thread.
///
/// The tests carry the `perf` ctest label and RUN_SERIAL, so no other
/// test competes for the cores while they time. Sanitizer builds skip
/// the label (`ctest -LE perf`): their slowdown is not uniform across
/// the two sides of a ratio.
///
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace dope;

namespace {

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point Start) {
  return std::chrono::duration<double>(SteadyClock::now() - Start).count();
}

/// The ceiling of the slowdown.
constexpr double MaxSlowdown = 1.5;

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

TEST(PerfRatio, DeadTracersDoNotSlowRecording) {
  constexpr unsigned DeadTracers = 20000;
  constexpr unsigned Records = 20000;
  constexpr unsigned Reps = 5;
  // Best of Reps for each side: interference only ever slows a run down,
  // so the best run is the one closest to what the code can do. The reps
  // alternate, so a burst of load from outside the process cannot land
  // on one side only.
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
  EXPECT_LE(Slowdown, MaxSlowdown);
}
