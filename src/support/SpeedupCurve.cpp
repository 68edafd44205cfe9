//===- support/SpeedupCurve.cpp - Parallel scalability models ------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/SpeedupCurve.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

using namespace dope;

SpeedupCurve::SpeedupCurve(double Alpha, double FixedCost, double Cap)
    : Alpha(Alpha), FixedCost(FixedCost), Cap(Cap) {
  assert(Alpha >= 0.0 && "negative per-thread overhead");
  assert(FixedCost >= 0.0 && "negative fixed cost");
  assert(Cap > 0.0 && "cap must be positive");
}

double SpeedupCurve::speedup(unsigned M) const {
  assert(M >= 1 && "extent must be positive");
  if (M == 1)
    return 1.0;
  const double Raw = static_cast<double>(M) /
                     (1.0 + FixedCost + Alpha * static_cast<double>(M - 1));
  return std::min(Cap, Raw);
}

double SpeedupCurve::efficiency(unsigned M) const {
  return speedup(M) / static_cast<double>(M);
}

unsigned SpeedupCurve::mmax(double Threshold, unsigned Limit) const {
  assert(Threshold > 0.0 && Threshold <= 1.0 && "threshold is a ratio");
  unsigned Best = 1;
  for (unsigned M = 2; M <= Limit; ++M)
    if (efficiency(M) >= Threshold)
      Best = M;
  return Best;
}

unsigned SpeedupCurve::dopMin(unsigned Limit) const {
  for (unsigned M = 1; M <= Limit; ++M)
    if (speedup(M) > 1.0 && M > 1)
      return M;
  return 0;
}

unsigned SpeedupCurve::bestExtent(unsigned Limit) const {
  unsigned Best = 1;
  double BestSpeedup = 1.0;
  for (unsigned M = 2; M <= Limit; ++M) {
    const double S = speedup(M);
    if (S > BestSpeedup) {
      Best = M;
      BestSpeedup = S;
    }
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Fitting
//===----------------------------------------------------------------------===//

namespace {

/// Sum of squared residuals of Rate_i ~ Base * S_{Alpha,Fixed}(Extent_i)
/// with Base solved in closed form: for fixed curve shape the model is
/// linear in Base, so Base* = sum(r_i s_i) / sum(s_i^2).
double residual(const std::vector<SpeedupSample> &Samples, double Alpha,
                double Fixed, double *BaseOut) {
  double Rs = 0.0, Ss = 0.0;
  const SpeedupCurve C(Alpha, Fixed);
  for (const SpeedupSample &P : Samples) {
    const double S = C.speedup(P.Extent);
    Rs += P.Rate * S;
    Ss += S * S;
  }
  const double Base = Ss > 0.0 ? Rs / Ss : 0.0;
  double Err = 0.0;
  for (const SpeedupSample &P : Samples) {
    const double D = P.Rate - Base * C.speedup(P.Extent);
    Err += D * D;
  }
  if (BaseOut)
    *BaseOut = Base;
  return Err;
}

} // namespace

SpeedupCurveFit
dope::fitSpeedupCurve(const std::vector<SpeedupSample> &Samples) {
  SpeedupCurveFit Fit;

  std::vector<SpeedupSample> Usable;
  for (const SpeedupSample &P : Samples)
    if (P.Extent >= 1 && P.Rate > 0.0)
      Usable.push_back(P);
  Fit.SampleCount = Usable.size();

  bool TwoExtents = false;
  for (const SpeedupSample &P : Usable)
    TwoExtents |= P.Extent != Usable.front().Extent;
  if (Usable.size() < 2 || !TwoExtents)
    return Fit; // BaseRate = 0: "no history"

  // Coarse grid, then adaptive refinement around the incumbent. The
  // residual surface has a long, nearly flat valley (Base and Fixed
  // trade off against each other for all extents but 1), so refinement
  // keeps the span while it is still improving — crawling along the
  // valley — and only zooms once a span stops paying. Ties resolve to
  // the smallest (Alpha, Fixed) visited first, keeping the fit
  // deterministic.
  double BestAlpha = 0.0, BestFixed = 0.0, BestBase = 0.0;
  double BestErr = std::numeric_limits<double>::infinity();
  auto Search = [&](double AlphaLo, double AlphaHi, double FixedLo,
                    double FixedHi, unsigned Points) {
    const double AlphaStep = (AlphaHi - AlphaLo) / (Points - 1);
    const double FixedStep = (FixedHi - FixedLo) / (Points - 1);
    for (unsigned I = 0; I != Points; ++I) {
      for (unsigned J = 0; J != Points; ++J) {
        const double Alpha = AlphaLo + AlphaStep * I;
        const double Fixed = FixedLo + FixedStep * J;
        double Base = 0.0;
        const double Err = residual(Usable, Alpha, Fixed, &Base);
        if (Err < BestErr) {
          BestErr = Err;
          BestAlpha = Alpha;
          BestFixed = Fixed;
          BestBase = Base;
        }
      }
    }
  };

  Search(0.0, 1.0, 0.0, 2.0, 21);
  double AlphaSpan = 0.05, FixedSpan = 0.1;
  for (int Pass = 0; Pass != 12 && AlphaSpan > 1e-5; ++Pass) {
    const double PrevErr = BestErr;
    Search(std::max(0.0, BestAlpha - AlphaSpan), BestAlpha + AlphaSpan,
           std::max(0.0, BestFixed - FixedSpan), BestFixed + FixedSpan, 11);
    if (BestErr < PrevErr * (1.0 - 1e-9))
      continue; // still descending at this scale: crawl, don't zoom
    AlphaSpan *= 0.25;
    FixedSpan *= 0.25;
  }

  Fit.Curve = SpeedupCurve(BestAlpha, BestFixed);
  Fit.BaseRate = BestBase;
  Fit.Rmse = std::sqrt(BestErr / static_cast<double>(Usable.size()));
  return Fit;
}

//===----------------------------------------------------------------------===//
// Fit cache
//===----------------------------------------------------------------------===//

bool SpeedupFitCache::TableLess::operator()(
    const std::vector<SpeedupSample> &L,
    const std::vector<SpeedupSample> &R) const {
  return std::lexicographical_compare(
      L.begin(), L.end(), R.begin(), R.end(),
      [](const SpeedupSample &A, const SpeedupSample &B) {
        if (A.Extent != B.Extent)
          return A.Extent < B.Extent;
        return std::bit_cast<uint64_t>(A.Rate) <
               std::bit_cast<uint64_t>(B.Rate);
      });
}

SpeedupCurveFit
SpeedupFitCache::fit(const std::vector<SpeedupSample> &Samples) {
  if (auto It = Fits.find(Samples); It != Fits.end())
    return It->second;
  if (Fits.size() >= Capacity)
    Fits.clear();
  return Fits.emplace(Samples, fitSpeedupCurve(Samples)).first->second;
}
