//===- sim/TickLoop.cpp - Event dispatch with periodic ticks ---------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/TickLoop.h"

#include <limits>

using namespace dope;

TickLoop::TickLoop(EventQueue &Events, Tracer *Sink)
    : Events(Events), Sink(Sink) {
  if (!Sink)
    return;
  PrevActive = Tracer::active();
  Sink->setClock([&Events] { return Events.now(); });
  Tracer::setActive(Sink);
}

TickLoop::~TickLoop() {
  if (!Sink)
    return;
  Sink->setClock({});
  if (Tracer::active() == Sink)
    Tracer::setActive(PrevActive);
}

void TickLoop::addTick(double IntervalSeconds, std::function<bool()> Fn) {
  assert(IntervalSeconds > 0.0 && "tick interval must be positive");
  Ticks.push_back({IntervalSeconds, Events.now() + IntervalSeconds,
                   Events.takeSeq(), std::move(Fn)});
}

void TickLoop::run(double EndTime, const std::function<bool()> &Done) {
  double EventTime = std::numeric_limits<double>::infinity();
  uint64_t EventSeq = 0;
  bool Stale = true;
  while (!Done() && Events.now() < EndTime) {
    if (Stale && !Events.peek(EndTime, EventTime, EventSeq))
      EventTime = std::numeric_limits<double>::infinity();
    Stale = true;
    auto Due = Ticks.end();
    for (auto T = Ticks.begin(); T != Ticks.end(); ++T)
      if (T->Time <= EndTime &&
          (Due == Ticks.end() || T->Time < Due->Time ||
           (T->Time == Due->Time && T->Seq < Due->Seq)))
        Due = T;
    if (Due == Ticks.end() || Due->Time > EventTime ||
        (Due->Time == EventTime && Due->Seq > EventSeq)) {
      if (!Events.step(EndTime))
        break;
      continue;
    }
    const uint64_t SeqBefore = Events.nextSeq();
    const size_t LiveBefore = Events.pendingEvents();
    Events.advanceClock(Due->Time);
    const bool Rearm = Due->Fn();
    Stale = Events.nextSeq() != SeqBefore ||
            Events.pendingEvents() != LiveBefore;
    if (!Rearm) {
      Ticks.erase(Due);
      continue;
    }
    Due->Time = Events.now() + Due->Interval;
    Due->Seq = Events.takeSeq();
  }
}
