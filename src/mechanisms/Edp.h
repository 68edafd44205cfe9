//===- mechanisms/Edp.h - Energy-delay-product goal -------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An example of the paper's open-ended administrator goals (Sec. 4):
/// "The administrator may also invent more complex performance goals
/// such as minimizing the energy-delay product". This mechanism
/// demonstrates that a new goal slots into DoPE without touching
/// application code — exactly the separation of concerns the paper
/// claims.
///
/// Model, for a server nest with inner extent m on C contexts:
///
///   T(m)   = T1 / S(m)                 per-transaction delay
///   E(m)  ~=  m * T(m)                 dynamic energy (m busy cores for
///                                      T(m) seconds, unit core power)
///   EDP(m) =  E(m) * T(m)  ~  m * T1^2 / S(m)^2
///
/// The mechanism picks the extent minimizing EDP among the extents whose
/// system capacity (C / m) * S(m) / T1 still covers the observed demand
/// with a safety margin; under pressure it therefore degrades toward
/// throughput mode like the response-time mechanisms. The application's
/// scalability curve S is profiled offline and supplied by the
/// administrator (the same curve the simulator uses).
///
/// For near-linear curves EDP decreases with m (parallelism saves
/// energy-delay); for overhead-heavy curves the optimum sits at small m
/// — the ext_goals benchmark sweeps both regimes.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_MECHANISMS_EDP_H
#define DOPE_MECHANISMS_EDP_H

#include "core/Mechanism.h"
#include "mechanisms/ServerNest.h"
#include "support/SpeedupCurve.h"

namespace dope {

/// Tuning parameters of the EDP mechanism.
struct EdpParams {
  /// Profiled scalability of the inner parallelization.
  SpeedupCurve Curve;
  /// Largest inner extent considered.
  unsigned MMax = 8;
  /// Capacity must exceed the demand estimate by this factor before an
  /// extent is considered feasible.
  double StabilityMargin = 1.15;
  /// Inner alternative activated when the chosen extent exceeds 1.
  int AltIndex = 0;
};

/// Minimize energy-delay product with N threads.
class EdpMechanism : public Mechanism {
public:
  explicit EdpMechanism(EdpParams Params);

  std::string name() const override { return "EDP"; }

  std::optional<RegionConfig>
  reconfigure(const ParDescriptor &Region, const RegionSnapshot &Root,
              const RegionConfig &Current, const MechanismContext &Ctx)
      override;

  void reset() override;

  /// Relative energy-delay product of extent \p M (unit T1): m / S(m)^2.
  double edpScore(unsigned M) const;

  /// The extent the mechanism would pick for a demand-to-capacity ratio
  /// of \p DemandFraction (0 = idle). Exposed for tests and the
  /// benchmark harness.
  unsigned extentForDemand(double DemandFraction) const;

private:
  EdpParams Params;
  ServerConfigCache Proposals;
};

} // namespace dope

#endif // DOPE_MECHANISMS_EDP_H
