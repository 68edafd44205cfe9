//===- mechanisms/WqtH.cpp - Work Queue Threshold with Hysteresis ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/WqtH.h"

#include "mechanisms/ServerNest.h"

#include <cassert>

using namespace dope;

WqtHMechanism::WqtHMechanism(WqtHParams Params) : Params(Params) {
  assert(Params.MMax >= 1 && "Mmax must be positive");
  assert(Params.NOn >= 1 && Params.NOff >= 1 && "hysteresis must be >= 1");
}

std::optional<RegionConfig>
WqtHMechanism::reconfigure(const ParDescriptor &Region,
                           const RegionSnapshot &Root,
                           const RegionConfig &Current,
                           const MechanismContext &Ctx) {
  if (!isServerNest(Region))
    return std::nullopt;
  assert(!Root.Tasks.empty() && "snapshot is empty");

  // The outer task's load callback reports the work-queue occupancy.
  const double Occupancy = Root.Tasks.front().LastLoad;

  if (Occupancy < Params.QueueThreshold) {
    ++BelowCount;
    AboveCount = 0;
  } else {
    ++AboveCount;
    BelowCount = 0;
  }

  if (!InPar && BelowCount > Params.NOff) {
    InPar = true;
    BelowCount = 0;
  } else if (InPar && AboveCount > Params.NOn) {
    InPar = false;
    AboveCount = 0;
  }

  const unsigned Inner = InPar ? Params.MMax : 1;
  const unsigned Outer = outerExtentFor(Ctx.effectiveThreads(), Inner);
  return Proposals.propose(Region, Outer, Inner, Params.AltIndex, Current);
}

void WqtHMechanism::seedWarmStart(const WarmStartHint &Hint) {
  if (!Hint.appliesTo(name()) || Hint.Extents.size() != 2)
    return;
  StartInPar = Hint.Extents[1] > 1;
  InPar = StartInPar;
  BelowCount = 0;
  AboveCount = 0;
}

void WqtHMechanism::reset() {
  // The hinted start state survives reset(): a restart should resume in
  // the regime the profile predicted, not the cold SEQ default.
  InPar = StartInPar;
  BelowCount = 0;
  AboveCount = 0;
  Proposals.clear();
}
