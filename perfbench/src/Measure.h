//===- perfbench/src/Measure.h - Timing, sampling and reporting --*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's measurement kit: steady-clock request loops, the
/// reference-speed clock that end-to-end timings are reported in, an exact
/// sample set for percentiles, peak RSS, per-request seed derivation, and
/// the Outcome every workload fills (correctness counters plus metrics by
/// name). Metric names and units are listed once, in BENCHMARK.json;
/// perfbench/run.py rejects a name that is not there.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double secondsBetween(SteadyClock::time_point A,
                             SteadyClock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline double secondsSince(SteadyClock::time_point A) {
  return secondsBetween(A, SteadyClock::now());
}

/// Exact samples for percentiles. Past \p Cap kept samples every other
/// one is discarded and only every Stride-th later sample is kept, so a
/// traced run with millions of timed calls keeps bounded memory while
/// every reported percentile is still a measured value.
class Samples {
public:
  explicit Samples(size_t Cap = size_t(1) << 21) : Cap(Cap) {}

  void add(double Value);
  /// Nearest-rank percentile, \p Q in [0, 1]; 0 when empty.
  double percentile(double Q) const;

private:
  size_t Cap;
  uint64_t Stride = 1;
  uint64_t Seen = 0;
  std::vector<double> Kept;
};

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Seed of request \p Index of a run seeded with \p Seed: a splitmix64
/// mix, so neighbouring requests get unrelated inputs.
uint64_t requestSeed(uint64_t Seed, uint64_t Index);

/// Command-line arguments every workload receives.
struct RunArgs {
  uint64_t Seed = 1;
  double Seconds = 10.0;
  /// False: the end-to-end run, no benchmark timers inside layers.
  /// True: the traced run, reporting the per-layer metrics.
  bool Trace = false;
};

/// What a workload reports.
class Outcome {
public:
  /// Records \p Value for metric \p Name, a name from BENCHMARK.json.
  void set(const std::string &Name, double Value) { Values[Name] = Value; }

  /// Counts \p Units attempted work units of which \p FailedUnits failed.
  void count(uint64_t Units, uint64_t FailedUnits) {
    Attempted += Units;
    Failed += FailedUnits;
  }
  /// Records a failed correctness check; the run is then incorrect.
  void fail(const std::string &Message);

  bool correct() const { return Errors.empty() && Failed == 0; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &errors() const { return Errors; }
  const std::map<std::string, double> &values() const { return Values; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::map<std::string, double> Values;
};

/// The machine's speed through a run, sampled on a fixed reference kernel
/// (a small discrete-event loop owned by the benchmark, ~3 ms). A shared
/// host runs the same code up to twice as fast at one time as at another,
/// so the end-to-end timings are reported in reference seconds: wall
/// seconds scaled by NominalSeconds over the kernel's time measured around
/// the same moment. A change to the program moves the program's time and
/// not the kernel's; a change of host speed moves both.
class ReferenceSpeed {
public:
  /// The kernel's wall time that defines one reference second per second
  /// (about its median on the probe VM, a 4-vCPU 2.1 GHz Xeon).
  static constexpr double NominalSeconds = 3e-3;

  ReferenceSpeed() : Start(SteadyClock::now()) {}

  /// Seconds since this clock started.
  double now() const { return secondsSince(Start); }
  SteadyClock::time_point start() const { return Start; }

  /// Runs the kernel once and records its wall time.
  void sample();
  /// sample(), unless one was taken less than \p Seconds ago.
  void sampleEvery(double Seconds) {
    if (At.empty() || now() - At.back() >= Seconds)
      sample();
  }

  /// Reference seconds per wall second at \p At (seconds since start):
  /// NominalSeconds over the median of the nine samples nearest in time.
  double factorAt(double At) const;
  /// \p Seconds of wall time measured at \p At, in reference seconds.
  double toReference(double Seconds, double At) const {
    return Seconds * factorAt(At);
  }
  /// Median wall time of the kernel over the run, in seconds.
  double kernelSeconds() const { return median(KernelSeconds); }
  /// Prints the kernel's median time to standard error.
  void report() const;

private:
  SteadyClock::time_point Start;
  std::vector<double> At, KernelSeconds;
};

/// One request of a load loop: when it started, in seconds since the
/// reference clock started, and how long it took in wall seconds.
struct RequestTime {
  double At = 0.0;
  double Seconds = 0.0;
};

/// Runs \p Request(I) for I = 0, 1, ... until \p Seconds of wall time have
/// passed (at least once). \p Between runs before each request, untimed,
/// and \p Ref is sampled at most every 50 ms between requests.
template <class Fn, class Gap>
std::vector<RequestTime> runForSeconds(double Seconds, ReferenceSpeed &Ref,
                                       Fn &&Request, Gap &&Between) {
  std::vector<RequestTime> Times;
  const SteadyClock::time_point Start = SteadyClock::now();
  do {
    Ref.sampleEvery(0.05);
    Between();
    const SteadyClock::time_point T0 = SteadyClock::now();
    Request(Times.size());
    Times.push_back({secondsBetween(Ref.start(), T0), secondsSince(T0)});
  } while (secondsSince(Start) < Seconds);
  // Samples on both sides of the last request.
  Ref.sample();
  return Times;
}

template <class Fn>
std::vector<RequestTime> runForSeconds(double Seconds, ReferenceSpeed &Ref,
                                       Fn &&Request) {
  return runForSeconds(Seconds, Ref, Request, [] {});
}

/// Set-up time sampled through a whole run. Each call times \p PerBatch
/// calls of \p Build as one batch; seconds() is the median per-build time
/// over the batches, in reference seconds. Called between requests, the
/// set-up meets the same machine conditions as the load, not only those
/// of the run's first milliseconds, and a short, noisy build reads
/// steadily.
template <class Fn> class SetupSampler {
public:
  SetupSampler(unsigned PerBatch, Fn Build)
      : PerBatch(PerBatch), Build(std::move(Build)) {}

  /// Times one batch at \p Ref's current moment.
  void operator()(const ReferenceSpeed &Ref) {
    const double At = Ref.now();
    const SteadyClock::time_point T0 = SteadyClock::now();
    for (unsigned I = 0; I != PerBatch; ++I)
      Build();
    Batches.push_back({At, secondsSince(T0) / PerBatch});
  }

  /// Median per-build time in reference seconds; call after the run, when
  /// \p Ref holds samples on both sides of every batch.
  double seconds(const ReferenceSpeed &Ref) const {
    std::vector<double> PerBuild;
    for (const RequestTime &B : Batches)
      PerBuild.push_back(Ref.toReference(B.Seconds, B.At));
    return median(std::move(PerBuild));
  }

private:
  unsigned PerBatch;
  Fn Build;
  std::vector<RequestTime> Batches;
};

/// The \p Q percentile of \p Values, summarized over windows: the run is
/// cut into consecutive windows by each sample's time \p At, and the median
/// of the windows' percentiles is returned. On a shared machine a disturbed
/// second then moves one window, not the reported figure. A window is at
/// least 2 s long and, on average, holds enough samples that \p Beyond lie
/// beyond the percentile; a run too short for two such windows is one
/// window. Where the tail comes from the inputs (requests whose work
/// varies with their seed), it needs many samples per window; where it
/// comes from disturbed seconds (requests of near-equal work, or a native
/// server's latency), few are enough, and more windows outvote the
/// disturbed ones.
double windowPercentile(const std::vector<double> &At,
                        const std::vector<double> &Values, double Q,
                        double Beyond);

/// Fills the end-to-end metrics the simulated workloads share, where a
/// request is one simulated run: throughput is the median over requests of
/// work units per reference second, and latency the reference time of one
/// request, summarized over windows holding \p TailSamples beyond each
/// percentile (windowPercentile); \p Units holds each request's units.
void setSimulatedEndToEnd(Outcome &Out, const std::vector<RequestTime> &Times,
                          const ReferenceSpeed &Ref,
                          const std::vector<double> &Units,
                          double VerifiedUnits, double SetupSeconds,
                          double TailSamples);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
