//===- mechanisms/WqtH.h - Work Queue Threshold with Hysteresis -*- C++ -*-==//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WQT-H (paper Sec. 7.1), a response-time mechanism for server nests.
///
/// A 2-state machine toggles between
///
///   * PAR state ("latency mode"): inner DoP extent Mmax, outer extent
///     N / Mmax — minimizes per-transaction execution time; and
///   * SEQ state ("throughput mode"): inner DoP extent 1, outer extent
///     N — maximizes sustainable throughput.
///
/// Transitions depend on work-queue occupancy relative to a threshold T
/// with hysteresis: the machine must observe the condition for Noff
/// (toward PAR) or Non (toward SEQ) consecutive decision points before
/// toggling, which lets the system infer a load pattern and avoid
/// thrashing.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_MECHANISMS_WQTH_H
#define DOPE_MECHANISMS_WQTH_H

#include "core/Mechanism.h"
#include "mechanisms/ServerNest.h"

namespace dope {

/// Tuning parameters of WQT-H. The threshold T is back-calculated by the
/// administrator from the acceptable response-time degradation (SLA).
struct WqtHParams {
  /// Work-queue occupancy threshold T.
  double QueueThreshold = 8.0;
  /// Consecutive below-threshold observations required to enter PAR.
  unsigned NOff = 3;
  /// Consecutive above-threshold observations required to enter SEQ.
  unsigned NOn = 3;
  /// Inner DoP extent used in the PAR state (extent above which parallel
  /// efficiency drops below 0.5).
  unsigned MMax = 8;
  /// Inner alternative to activate in the PAR state.
  int AltIndex = 0;
};

/// Work Queue Threshold with Hysteresis.
class WqtHMechanism : public Mechanism {
public:
  explicit WqtHMechanism(WqtHParams Params);

  std::string name() const override { return "WQT-H"; }

  std::optional<RegionConfig>
  reconfigure(const ParDescriptor &Region, const RegionSnapshot &Root,
              const RegionConfig &Current, const MechanismContext &Ctx)
      override;

  void reset() override;

  /// Accepts {outer, inner} hints: an inner extent > 1 makes the machine
  /// start (and restart) in the PAR state instead of the cold SEQ
  /// default. The hysteresis loop takes over from there unchanged.
  void seedWarmStart(const WarmStartHint &Hint) override;

  /// Current state, for tests: true when in the PAR (latency) state.
  bool inParState() const { return InPar; }

private:
  /// Initial state of the 2-state machine; flipped by a warm-start hint.
  /// The paper's cold default is SEQ ("Initially, WQT-H is in the SEQ
  /// state").
  bool StartInPar = false;

  WqtHParams Params;
  bool InPar = false;
  unsigned BelowCount = 0;
  unsigned AboveCount = 0;
  ServerConfigCache Proposals;
};

} // namespace dope

#endif // DOPE_MECHANISMS_WQTH_H
