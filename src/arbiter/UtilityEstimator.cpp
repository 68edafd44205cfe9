//===- arbiter/UtilityEstimator.cpp - Marginal utility of threads --------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "arbiter/UtilityEstimator.h"

#include <algorithm>

using namespace dope;

void UtilityEstimator::observe(unsigned Threads, double Rate) {
  if (Threads == 0 || Rate <= 0.0)
    return;
  auto It = Observed.find(Threads);
  store(Threads, It == Observed.end()
                     ? Rate
                     : (1.0 - Smoothing) * It->second + Smoothing * Rate);
}

void UtilityEstimator::setObservation(unsigned Threads, double Rate) {
  if (Threads == 0 || Rate <= 0.0)
    return;
  store(Threads, Rate);
}

void UtilityEstimator::store(unsigned Threads, double Rate) {
  auto [It, Inserted] = Observed.try_emplace(Threads, Rate);
  if (!Inserted && It->second == Rate)
    return; // same table, same fit
  It->second = Rate;
  Dirty = true;
}

const SpeedupCurveFit &UtilityEstimator::fit() const {
  if (Dirty) {
    std::vector<SpeedupSample> Samples;
    Samples.reserve(Observed.size());
    for (const auto &[Extent, Rate] : Observed)
      Samples.push_back({Extent, Rate});
    Fit = Cache->fit(Samples);
    Dirty = false;
  }
  return Fit;
}

double UtilityEstimator::predictRate(unsigned Threads) const {
  if (Threads == 0)
    return 0.0;
  return fit().predictRate(Threads);
}

double UtilityEstimator::marginalRate(unsigned Threads) const {
  const double Gain = predictRate(Threads + 1) - predictRate(Threads);
  return std::max(0.0, Gain);
}

void UtilityEstimator::reset() {
  Observed.clear();
  Fit = SpeedupCurveFit();
  Dirty = true;
}
