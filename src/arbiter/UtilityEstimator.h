//===- arbiter/UtilityEstimator.h - Marginal utility of threads -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-tenant scalability learning. The estimator maintains a smoothed
/// observation of achieved throughput at each granted thread count it has
/// seen, fits the standard fixed-cost/linear-overhead SpeedupCurve over
/// those observations, and answers marginal-utility queries: how much
/// more work per second would one more thread buy this tenant? The
/// arbiter bids tenants against each other on exactly that quantity.
///
/// With no usable history (fewer than two distinct thread counts
/// observed) the estimator reports hasHistory() == false and the arbiter
/// falls back to equal-share bidding.
///
/// The estimator refits only when its table changed (an EMA update at
/// its fixed point or a verbatim restore leaves it clean), and it fits
/// through a SpeedupFitCache it is handed rather than calling
/// fitSpeedupCurve itself. An arbiter hands one cache to all of its
/// tenants' estimators, so tenants whose tables match bit for bit pay
/// one fit between them. A cached fit is the fit, so every query answers
/// exactly as a fresh fit would.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_ARBITER_UTILITYESTIMATOR_H
#define DOPE_ARBITER_UTILITYESTIMATOR_H

#include "support/SpeedupCurve.h"

#include <map>

namespace dope {

class UtilityEstimator {
public:
  /// Fits go through \p Cache, which must outlive the estimator.
  /// \p Smoothing is the EMA factor applied to repeated observations at
  /// the same thread count (1.0 = keep only the newest).
  explicit UtilityEstimator(SpeedupFitCache &Cache, double Smoothing = 0.4)
      : Cache(&Cache), Smoothing(Smoothing) {}

  /// Record one windowed observation: the tenant achieved \p Rate
  /// completions/second while holding \p Threads threads. Observations
  /// with zero threads or non-positive rate are ignored (an idle window
  /// says nothing about scalability).
  void observe(unsigned Threads, double Rate);

  /// True once observations span at least two distinct thread counts —
  /// the minimum for a meaningful curve fit.
  bool hasHistory() const { return Observed.size() >= 2; }

  /// The current curve fit (refit lazily after new observations).
  /// BaseRate == 0 when hasHistory() is false.
  const SpeedupCurveFit &fit() const;

  /// Predicted throughput at \p Threads threads; 0 without history.
  double predictRate(unsigned Threads) const;

  /// Predicted throughput gain of thread \p Threads + 1 over \p Threads;
  /// never negative. 0 without history.
  double marginalRate(unsigned Threads) const;

  /// Distinct thread counts observed so far.
  size_t distinctExtents() const { return Observed.size(); }

  /// The smoothed (threads -> rate) table itself — what a snapshot
  /// persists and a warm restart restores.
  const std::map<unsigned, double> &observations() const { return Observed; }

  /// Restores one smoothed observation verbatim (no EMA blending), as
  /// read back from a snapshot. Zero threads / non-positive rates are
  /// ignored, mirroring observe().
  void setObservation(unsigned Threads, double Rate);

  /// Drop all history (e.g. after a phase change the caller detects).
  void reset();

private:
  /// Records \p Rate at \p Threads; dirties the fit only on a change.
  void store(unsigned Threads, double Rate);

  SpeedupFitCache *Cache;
  double Smoothing;
  /// Smoothed rate per observed thread count. Ordered map: iteration
  /// order (and therefore the fit) is deterministic.
  std::map<unsigned, double> Observed;
  mutable SpeedupCurveFit Fit;
  mutable bool Dirty = true;
};

} // namespace dope

#endif // DOPE_ARBITER_UTILITYESTIMATOR_H
