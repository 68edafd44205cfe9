//===- support/SpeedupCurve.h - Parallel scalability models --------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalability curves S(m): the speedup of one transaction's inner
/// parallelization at DoP extent m. The paper characterizes applications
/// by (a) the observed speedup (x264: 6.3x on 8 threads), (b) the extent
/// Mmax above which parallel efficiency S(m)/m drops below 0.5, and
/// (c) DoPmin, the minimum inner extent at which any speedup over
/// sequential execution is obtained (Table 4; 4 for data compression).
///
/// The model used everywhere is the fixed-cost linear-overhead curve
///
///   S(1) = 1
///   S(m) = min(Cap, m / (1 + FixedCost + Alpha * (m - 1)))     (m > 1)
///
/// FixedCost captures the one-time cost of going parallel at all (thread
/// hand-off, pipeline fill) — it produces DoPmin > 2 behaviour; Alpha
/// captures per-thread communication/synchronization overhead; Cap models
/// structural limits (pipeline depth).
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SUPPORT_SPEEDUPCURVE_H
#define DOPE_SUPPORT_SPEEDUPCURVE_H

#include <cstddef>
#include <limits>
#include <map>
#include <vector>

namespace dope {

/// Fixed-cost, linear-overhead, capped speedup curve.
class SpeedupCurve {
public:
  SpeedupCurve() = default;

  /// \p Alpha per-thread overhead (>= 0), \p FixedCost one-time
  /// parallelization cost (>= 0), \p Cap structural speedup ceiling
  /// (> 0, may be infinity).
  SpeedupCurve(double Alpha, double FixedCost,
               double Cap = std::numeric_limits<double>::infinity());

  /// Speedup at extent \p M; S(1) == 1, S(m) > 0.
  double speedup(unsigned M) const;

  /// Parallel efficiency S(m)/m.
  double efficiency(unsigned M) const;

  /// Largest extent (searching up to \p Limit) whose efficiency is at
  /// least \p Threshold — the paper's Mmax with Threshold = 0.5. Returns
  /// 1 when no extent > 1 qualifies.
  unsigned mmax(double Threshold = 0.5, unsigned Limit = 64) const;

  /// Smallest extent with S(m) > 1 — the paper's DoPmin. Returns 0 when
  /// no extent up to \p Limit achieves speedup.
  unsigned dopMin(unsigned Limit = 64) const;

  /// Extent maximizing S(m) for m in [1, Limit] (smallest maximizer).
  unsigned bestExtent(unsigned Limit = 64) const;

  double alpha() const { return Alpha; }
  double fixedCost() const { return FixedCost; }
  double cap() const { return Cap; }

private:
  double Alpha = 0.05;
  double FixedCost = 0.0;
  double Cap = std::numeric_limits<double>::infinity();
};

/// One observation of a scalability experiment: the measured rate (e.g.
/// throughput in items/second — any consistent unit) achieved at extent
/// \p Extent. Rates need not be normalized: the fit estimates the
/// sequential base rate alongside the curve.
struct SpeedupSample {
  unsigned Extent = 1;
  double Rate = 0.0;
};

/// Result of fitting a SpeedupCurve to observed (extent, rate) samples.
struct SpeedupCurveFit {
  /// The fitted curve; predicted rate at extent m is
  /// BaseRate * Curve.speedup(m).
  SpeedupCurve Curve;

  /// Estimated sequential rate (rate at extent 1).
  double BaseRate = 0.0;

  /// Root-mean-square residual of the fit in rate units.
  double Rmse = 0.0;

  /// Samples the fit was computed from.
  size_t SampleCount = 0;

  /// Predicted rate at extent \p M.
  double predictRate(unsigned M) const {
    return BaseRate * Curve.speedup(M);
  }
};

/// Least-squares fit of the fixed-cost linear-overhead curve to noisy
/// (extent, rate) samples: a coarse-to-fine grid search over
/// (Alpha, FixedCost) with the base rate solved in closed form per
/// candidate. Deterministic — identical samples produce an identical
/// fit. Requires at least two samples at distinct extents; with fewer
/// (or with non-positive rates only) the fallback is a default curve
/// with BaseRate = 0, which callers treat as "no history".
SpeedupCurveFit fitSpeedupCurve(const std::vector<SpeedupSample> &Samples);

/// Memo of fitSpeedupCurve keyed by the exact sample table: the same
/// extents in the same order, and rates equal bit for bit. The fit is a
/// deterministic pure function of that table, so a hit returns exactly
/// the fit a recomputation would, and callers decide identically with
/// or without the cache. Many estimators can share one cache: colocated
/// tenants running the same code hold identical tables, and each table
/// is fitted once. Bounded by Capacity: a miss that finds the cache full
/// clears it before inserting, so it never holds more than Capacity
/// entries. Not thread-safe; the owner serializes access.
class SpeedupFitCache {
public:
  /// Most tables held at once.
  static constexpr size_t Capacity = 1024;

  /// fitSpeedupCurve(Samples), computed on the first call with this
  /// table since the last clear and looked up after that.
  SpeedupCurveFit fit(const std::vector<SpeedupSample> &Samples);

  /// Tables currently held.
  size_t size() const { return Fits.size(); }

private:
  /// Strict weak order on tables, comparing rates by their bits.
  struct TableLess {
    bool operator()(const std::vector<SpeedupSample> &L,
                    const std::vector<SpeedupSample> &R) const;
  };
  std::map<std::vector<SpeedupSample>, SpeedupCurveFit, TableLess> Fits;
};

} // namespace dope

#endif // DOPE_SUPPORT_SPEEDUPCURVE_H
