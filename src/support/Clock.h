//===- support/Clock.h - Monotonic time helpers ---------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place in the repository allowed to read a wall clock.
///
/// DoPE's mechanisms must be pure functions of their monitored features,
/// and the replay/golden-trace suite (DESIGN.md §9) depends on it: every
/// other translation unit obtains time through these helpers (or through
/// a simulator's virtual clock), never through std::chrono clocks
/// directly. The `dope_lint` determinism check (DL001, DESIGN.md §12)
/// enforces the convention — this file is its only whitelisted home for
/// raw clock reads.
///
/// (The paper's implementation uses per-thread clock_gettime timers;
/// steady-clock seconds serve the same role here.)
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SUPPORT_CLOCK_H
#define DOPE_SUPPORT_CLOCK_H

#include <chrono>
#include <thread>

namespace dope {

/// Seconds since an arbitrary fixed epoch, monotonic.
inline double monotonicSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Origin).count();
}

/// Converts a seconds count into the std::chrono duration the timed-wait
/// APIs (condition_variable::wait_for and friends) expect, so callers
/// need no raw std::chrono spelling of their own.
inline std::chrono::duration<double> secondsDuration(double Seconds) {
  return std::chrono::duration<double>(Seconds);
}

/// Sleeps the calling thread for the given number of seconds.
inline void sleepSeconds(double Seconds) {
  if (Seconds <= 0)
    return;
  std::this_thread::sleep_for(secondsDuration(Seconds));
}

} // namespace dope

#endif // DOPE_SUPPORT_CLOCK_H
