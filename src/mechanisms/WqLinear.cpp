//===- mechanisms/WqLinear.cpp - Work Queue Linear --------------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/WqLinear.h"

#include "mechanisms/ServerNest.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

using namespace dope;

WqLinearMechanism::WqLinearMechanism(WqLinearParams Params) : Params(Params) {
  assert(Params.MMin >= 1 && "Mmin must be positive");
  assert(Params.MMax >= Params.MMin && "Mmax must be at least Mmin");
  assert(Params.QMax > 0.0 && "Qmax must be positive");
}

double WqLinearMechanism::slope() const {
  return static_cast<double>(Params.MMax - Params.MMin) / Params.QMax;
}

unsigned WqLinearMechanism::extentForOccupancy(double Occupancy) const {
  const double Raw =
      static_cast<double>(Params.MMax) - slope() * std::max(0.0, Occupancy);
  const double Clamped = std::max(static_cast<double>(Params.MMin), Raw);
  // Round to the nearest integer extent.
  return static_cast<unsigned>(Clamped + 0.5);
}

std::optional<RegionConfig>
WqLinearMechanism::reconfigure(const ParDescriptor &Region,
                               const RegionSnapshot &Root,
                               const RegionConfig &Current,
                               const MechanismContext &Ctx) {
  if (!isServerNest(Region))
    return std::nullopt;
  assert(!Root.Tasks.empty() && "snapshot is empty");

  // Instantaneous occupancy WQo (paper uses the instantaneous value, not
  // the smoothed one, so the mechanism can react within one decision).
  const double Occupancy = Root.Tasks.front().LastLoad;
  unsigned Extent = extentForOccupancy(Occupancy);

  if (LastExtent != 0 && Params.HysteresisBand > 0) {
    const unsigned Delta = Extent > LastExtent ? Extent - LastExtent
                                               : LastExtent - Extent;
    if (Delta <= Params.HysteresisBand)
      Extent = LastExtent;
  }
  LastExtent = Extent;

  const unsigned Outer = outerExtentFor(Ctx.effectiveThreads(), Extent);
  return Proposals.propose(Region, Outer, Extent, Params.AltIndex, Current);
}

void WqLinearMechanism::reset() {
  LastExtent = 0;
  Proposals.clear();
}
