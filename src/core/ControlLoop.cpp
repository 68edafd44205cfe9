//===- core/ControlLoop.cpp - One acceptance policy for proposals ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/ControlLoop.h"

#include "support/Logging.h"

#include <cassert>

using namespace dope;

Verdict ControlLoop::step(const RegionSnapshot &Snap,
                          const RegionConfig &Current,
                          const MechanismContext &Ctx, unsigned Envelope,
                          const RegionConfig *Pending) {
  assert(Mech && "stepping a loop without a mechanism");
  Proposal = Mech->reconfigure(Region, Snap, Current, Ctx);
  Verdict V = Verdict::Unchanged;
  if (Proposal && !(*Proposal == Current)) { // only a change is judged
    std::string Error;
    if (!validateConfig(Region, *Proposal, &Error)) {
      DOPE_LOG_WARN("mechanism '%s' produced invalid config: %s",
                    Mech->name().c_str(), Error.c_str());
      V = Verdict::Invalid;
    } else if (totalThreads(Region, *Proposal) > Envelope) {
      DOPE_LOG_WARN("mechanism '%s' exceeded thread envelope (%u > %u)",
                    Mech->name().c_str(), totalThreads(Region, *Proposal),
                    Envelope);
      V = Verdict::OverEnvelope;
    } else {
      V = Pending && *Proposal == *Pending ? Verdict::Pending
                                           : Verdict::Accepted;
    }
  }
  std::atomic<uint64_t> &Count = Counts[static_cast<size_t>(V)];
  Count.store(Count.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);

  if (Ctx.Trace) {
    // Refused proposals trace the config that keeps running.
    const RegionConfig &Chosen = takesEffect(V) ? *Proposal : Current;
    Ctx.Trace->recordAt(Ctx.NowSeconds, TraceKind::Decision, Mech->name(),
                        totalThreads(Region, Chosen),
                        takesEffect(V) ? 1.0 : 0.0, toString(Region, Chosen));
  }
  return V;
}

VerdictCounts ControlLoop::counts() const {
  auto Get = [this](Verdict V) {
    return Counts[static_cast<size_t>(V)].load(std::memory_order_relaxed);
  };
  return {.Unchanged = Get(Verdict::Unchanged),
          .Pending = Get(Verdict::Pending),
          .Accepted = Get(Verdict::Accepted),
          .Invalid = Get(Verdict::Invalid),
          .OverEnvelope = Get(Verdict::OverEnvelope)};
}
