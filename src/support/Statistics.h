//===- support/Statistics.h - Streaming statistics ------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming summary statistics and percentile estimation used by the
/// experiment harnesses (response time distributions, throughput windows,
/// power traces).
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SUPPORT_STATISTICS_H
#define DOPE_SUPPORT_STATISTICS_H

#include <cstddef>
#include <limits>
#include <vector>

namespace dope {

/// Single-pass summary statistics (Welford's algorithm for variance).
class StreamingStats {
public:
  void addSample(double X);

  size_t count() const { return N; }
  double mean() const { return N == 0 ? 0.0 : Mean; }
  /// Unbiased sample variance; zero with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return N == 0 ? 0.0 : Min; }
  double max() const { return N == 0 ? 0.0 : Max; }
  double sum() const { return Total; }

  void reset();

private:
  size_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = std::numeric_limits<double>::infinity();
  double Max = -std::numeric_limits<double>::infinity();
  double Total = 0.0;
};

/// Exact percentile estimation by retaining all samples.
///
/// Experiment scales here are modest (tens of thousands of samples), so
/// exact retention is simpler and more trustworthy than a sketch.
class PercentileTracker {
public:
  void addSample(double X);

  /// Returns the q-quantile with linear interpolation, q in [0, 1].
  /// Returns 0 when empty.
  double percentile(double Q) const;

  double median() const { return percentile(0.5); }
  size_t count() const { return Samples.size(); }
  void reset();

private:
  mutable std::vector<double> Samples;
  mutable bool Sorted = true;
};

/// Geometric mean of a sequence of positive values; returns 0 for an empty
/// sequence. The paper reports "136% (geomean)" throughput improvements.
double geomean(const std::vector<double> &Values);

} // namespace dope

#endif // DOPE_SUPPORT_STATISTICS_H
