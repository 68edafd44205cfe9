//===- support/Statistics.cpp - Streaming statistics ----------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dope;

void StreamingStats::addSample(double X) {
  ++N;
  Total += X;
  const double Delta = X - Mean;
  Mean += Delta / static_cast<double>(N);
  M2 += Delta * (X - Mean);
  Min = std::min(Min, X);
  Max = std::max(Max, X);
}

double StreamingStats::variance() const {
  if (N < 2)
    return 0.0;
  return M2 / static_cast<double>(N - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void StreamingStats::reset() { *this = StreamingStats(); }

void PercentileTracker::addSample(double X) {
  Samples.push_back(X);
  Sorted = false;
}

double PercentileTracker::percentile(double Q) const {
  assert(Q >= 0.0 && Q <= 1.0 && "quantile out of range");
  if (Samples.empty())
    return 0.0;
  if (!Sorted) {
    std::sort(Samples.begin(), Samples.end());
    Sorted = true;
  }
  const double Rank = Q * static_cast<double>(Samples.size() - 1);
  const size_t Lo = static_cast<size_t>(Rank);
  const size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] + Frac * (Samples[Hi] - Samples[Lo]);
}

void PercentileTracker::reset() {
  Samples.clear();
  Sorted = true;
}

double dope::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}
