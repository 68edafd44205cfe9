//===- mechanisms/Edp.cpp - Energy-delay-product goal -----------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/Edp.h"

#include "mechanisms/ServerNest.h"

#include <cassert>

using namespace dope;

EdpMechanism::EdpMechanism(EdpParams Params) : Params(Params) {
  assert(Params.MMax >= 1 && "Mmax must be positive");
  assert(Params.StabilityMargin >= 1.0 && "margin must be >= 1");
}

double EdpMechanism::edpScore(unsigned M) const {
  const double S = Params.Curve.speedup(M);
  return static_cast<double>(M) / (S * S);
}

unsigned EdpMechanism::extentForDemand(double DemandFraction) const {
  unsigned Best = 1;
  double BestScore = edpScore(1);
  bool BestFeasible = true; // m = 1 has the platform's full capacity

  for (unsigned M = 2; M <= Params.MMax; ++M) {
    // Capacity of <C/m outer, m inner> relative to the m = 1 capacity:
    // (C/m) * S(m) / C = S(m) / m (the parallel efficiency).
    const double RelativeCapacity =
        Params.Curve.speedup(M) / static_cast<double>(M);
    const bool Feasible =
        RelativeCapacity >= DemandFraction * Params.StabilityMargin;
    const double Score = edpScore(M);
    if (Feasible && (!BestFeasible || Score < BestScore)) {
      Best = M;
      BestScore = Score;
      BestFeasible = true;
    }
  }
  return Best;
}

std::optional<RegionConfig>
EdpMechanism::reconfigure(const ParDescriptor &Region,
                          const RegionSnapshot &Root,
                          const RegionConfig &Current,
                          const MechanismContext &Ctx) {
  if (!isServerNest(Region))
    return std::nullopt;
  assert(!Root.Tasks.empty() && "snapshot is empty");
  const TaskSnapshot &Outer = Root.Tasks.front();

  // Demand estimate as a fraction of the m = 1 maximum throughput:
  // the observed completion rate plus queue pressure. An occupied work
  // queue means the system is at (or beyond) its current capacity.
  const unsigned CurrentInner = serverInnerExtent(Current);
  double DemandFraction = 0.0;
  if (Outer.ExecTime > 0.0 && Outer.Invocations > 0) {
    // Completions per second at the current configuration, relative to
    // the m = 1 capacity C / T1 with T1 = ExecTime * S(m_current).
    const double T1Estimate =
        Outer.ExecTime * Params.Curve.speedup(CurrentInner);
    const double MaxThroughput =
        static_cast<double>(Ctx.effectiveThreads()) / T1Estimate;
    if (MaxThroughput > 0.0)
      DemandFraction = Outer.Throughput / MaxThroughput;
  }
  // Queue pressure: a standing backlog of Q transactions pushes the
  // demand estimate up; half a context's worth of backlog per context
  // saturates it.
  DemandFraction +=
      Outer.LastLoad / (0.5 * static_cast<double>(Ctx.effectiveThreads()));
  if (DemandFraction > 1.0)
    DemandFraction = 1.0;

  const unsigned Inner = extentForDemand(DemandFraction);
  const unsigned Outer_ = outerExtentFor(Ctx.effectiveThreads(), Inner);
  return Proposals.propose(Region, Outer_, Inner, Params.AltIndex, Current);
}

void EdpMechanism::reset() { Proposals.clear(); }
