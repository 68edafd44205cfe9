//===- mechanisms/WqLinear.h - Work Queue Linear ---------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WQ-Linear (paper Sec. 7.1): a more graceful response-time mechanism
/// than WQT-H. Instead of toggling between two extents, the inner DoP
/// extent varies continuously with the instantaneous work-queue occupancy
/// WQo (paper Eqns. 2-3):
///
///   DoP_extent = max(Mmin, Mmax - k * WQo),   k = (Mmax - Mmin) / Qmax
///
/// Qmax is back-calculated by the administrator from the maximum
/// response-time degradation acceptable under the SLA.
///
/// An optional hysteresis band (the "variant of WQ-Linear" the paper
/// mentions) suppresses reconfigurations that would change the extent by
/// no more than the band, trading responsiveness for stability; the
/// ablation benchmark sweeps this knob.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_MECHANISMS_WQLINEAR_H
#define DOPE_MECHANISMS_WQLINEAR_H

#include "core/Mechanism.h"
#include "mechanisms/ServerNest.h"

namespace dope {

/// Tuning parameters of WQ-Linear.
struct WqLinearParams {
  /// Smallest inner extent the mechanism will select.
  unsigned MMin = 1;
  /// Largest inner extent (efficiency knee).
  unsigned MMax = 8;
  /// Queue occupancy at which the extent reaches Mmin.
  double QMax = 16.0;
  /// Minimum extent change that triggers a reconfiguration (0 = always
  /// follow the line exactly).
  unsigned HysteresisBand = 0;
  /// Inner alternative activated when the extent exceeds 1.
  int AltIndex = 0;
};

/// Work Queue Linear.
class WqLinearMechanism : public Mechanism {
public:
  explicit WqLinearMechanism(WqLinearParams Params);

  std::string name() const override { return "WQ-Linear"; }

  std::optional<RegionConfig>
  reconfigure(const ParDescriptor &Region, const RegionSnapshot &Root,
              const RegionConfig &Current, const MechanismContext &Ctx)
      override;

  void reset() override;

  /// The slope k = (Mmax - Mmin) / Qmax (paper Eqn. 3).
  double slope() const;

  /// The extent Eqn. 2 yields for occupancy \p Occupancy.
  unsigned extentForOccupancy(double Occupancy) const;

private:
  WqLinearParams Params;
  unsigned LastExtent = 0; // 0 = no decision yet
  ServerConfigCache Proposals;
};

} // namespace dope

#endif // DOPE_MECHANISMS_WQLINEAR_H
