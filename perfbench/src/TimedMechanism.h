//===- perfbench/src/TimedMechanism.h - Mechanism timing decorator -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraps a real mechanism and times every reconfigure() call; name(),
/// reset() and seedWarmStart() forward unchanged, so a run driven through
/// the wrapper decides exactly as the unwrapped run does (the simulated
/// workloads check that). Used only by the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TIMEDMECHANISM_H
#define PERFBENCH_TIMEDMECHANISM_H

#include "Measure.h"

#include "core/Mechanism.h"

#include <atomic>
#include <memory>

namespace perfbench {

/// What the decorator measured. Written only by the thread that calls
/// reconfigure() (one simulator, or the executive's controller), except
/// LastChangeNs, which the native workload's workers read.
struct DecisionLog {
  Samples DecideNs;
  uint64_t Calls = 0;
  uint64_t Changes = 0;
  double BusySeconds = 0.0;
  /// steady_clock nanoseconds when a call last returned a changed
  /// configuration; 0 once a worker has claimed it (native workload).
  std::atomic<int64_t> LastChangeNs{0};
};

class TimedMechanism final : public dope::Mechanism {
public:
  TimedMechanism(std::unique_ptr<dope::Mechanism> Inner, DecisionLog &Log)
      : Inner(std::move(Inner)), Log(Log) {}

  std::string name() const override { return Inner->name(); }

  std::optional<dope::RegionConfig>
  reconfigure(const dope::ParDescriptor &Region,
              const dope::RegionSnapshot &Root,
              const dope::RegionConfig &Current,
              const dope::MechanismContext &Ctx) override {
    const SteadyClock::time_point Start = SteadyClock::now();
    std::optional<dope::RegionConfig> Next =
        Inner->reconfigure(Region, Root, Current, Ctx);
    const SteadyClock::time_point Stop = SteadyClock::now();
    const double Ns =
        std::chrono::duration<double, std::nano>(Stop - Start).count();
    Log.DecideNs.add(Ns);
    Log.BusySeconds += Ns * 1e-9;
    ++Log.Calls;
    if (Next && !(*Next == Current)) {
      ++Log.Changes;
      Log.LastChangeNs.store(Stop.time_since_epoch().count(),
                             std::memory_order_release);
    }
    return Next;
  }

  void reset() override { Inner->reset(); }

  void seedWarmStart(const dope::WarmStartHint &Hint) override {
    Inner->seedWarmStart(Hint);
  }

private:
  std::unique_ptr<dope::Mechanism> Inner;
  DecisionLog &Log;
};

/// Reports the mechanisms.* metrics of \p Log; \p Requests normalizes the
/// counts to one request and \p WallSeconds is the traced window.
inline void setMechanismMetrics(Outcome &Out, const DecisionLog &Log,
                                double Requests, double WallSeconds) {
  Out.set("mechanisms.decide_ns_p50", Log.DecideNs.percentile(0.50));
  Out.set("mechanisms.decide_ns_p99", Log.DecideNs.percentile(0.99));
  Out.set("mechanisms.calls", static_cast<double>(Log.Calls) / Requests);
  Out.set("mechanisms.changes", static_cast<double>(Log.Changes) / Requests);
  Out.set("mechanisms.busy_frac",
          WallSeconds > 0.0 ? Log.BusySeconds / WallSeconds : 0.0);
}

} // namespace perfbench

#endif // PERFBENCH_TIMEDMECHANISM_H
