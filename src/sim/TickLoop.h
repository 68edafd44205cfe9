//===- sim/TickLoop.h - Event dispatch with periodic ticks ------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulators' run loop: dispatches an EventQueue's events and runs
/// periodic ticks (decisions, power samples) between them, off the queue.
///
/// A tick takes its sequence number from the queue right after its body
/// runs, where a queued tick re-armed itself, and runs before the next
/// event exactly when its (time, sequence) is smaller. So every dispatch
/// order and sequence number is the one a queue holding the ticks gives.
/// The queue is peeked once per dispatched event, and after a tick only
/// if the tick scheduled or cancelled an event.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SIM_TICKLOOP_H
#define DOPE_SIM_TICKLOOP_H

#include "sim/EventQueue.h"
#include "support/Trace.h"

#include <functional>
#include <vector>

namespace dope {

class TickLoop {
public:
  /// While the loop lives, \p Sink (may be null) reads the queue's
  /// virtual clock and is the process-wide tracer for mirrored log lines.
  TickLoop(EventQueue &Events, Tracer *Sink);
  ~TickLoop();
  TickLoop(const TickLoop &) = delete;
  TickLoop &operator=(const TickLoop &) = delete;

  /// Arms \p Fn every \p IntervalSeconds from now, as scheduleAfter would;
  /// once \p Fn returns false it is not re-armed.
  void addTick(double IntervalSeconds, std::function<bool()> Fn);

  /// Runs ticks and events in (time, sequence) order until \p Done holds,
  /// virtual time reaches \p EndTime, or nothing is left at or before it.
  void run(double EndTime, const std::function<bool()> &Done);

private:
  struct Tick {
    double Interval;
    double Time;
    uint64_t Seq;
    std::function<bool()> Fn;
  };

  EventQueue &Events;
  Tracer *Sink;
  Tracer *PrevActive = nullptr;
  std::vector<Tick> Ticks;
};

} // namespace dope

#endif // DOPE_SIM_TICKLOOP_H
