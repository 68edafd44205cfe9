//===- perfbench/src/Measure.cpp - Timing, sampling and reporting ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>

using namespace perfbench;

namespace {

/// Shortest window a timing is summarized over.
constexpr double WindowSeconds = 2.0;

/// Cuts a run into consecutive windows of \p Window seconds by each
/// sample's time \p At, applies \p Stat to the sample indexes of every
/// window, and returns the median over windows. A trailing window shorter
/// than half a window is dropped when a full one exists.
template <class Fn>
double windowMedian(const std::vector<double> &At, double Window, Fn &&Stat) {
  double End = 0.0;
  for (double T : At)
    End = std::max(End, T);
  size_t Count = static_cast<size_t>(End / Window) + 1;
  if (Count > 1 && End - static_cast<double>(Count - 1) * Window < Window / 2)
    --Count;
  std::vector<std::vector<size_t>> Windows(Count);
  for (size_t I = 0; I != At.size(); ++I)
    Windows[std::min(Count - 1, static_cast<size_t>(At[I] / Window))]
        .push_back(I);
  std::vector<double> Stats;
  for (const std::vector<size_t> &W : Windows)
    if (!W.empty())
      Stats.push_back(Stat(W));
  return median(std::move(Stats));
}

/// The reference kernel: a fixed discrete-event loop in the style of the
/// simulators it calibrates. A heap of pending events, an xorshift
/// generator, exponential gaps, read-modify-writes into a 1 MiB table and
/// number formatting into a string. Returns a checksum so none of it is
/// optimized away.
uint64_t referenceKernel() {
  constexpr uint32_t Events = 1024;
  constexpr uint32_t Steps = 12000;
  constexpr uint32_t TableWords = 1u << 17;
  thread_local std::vector<uint64_t> Table(TableWords);
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  using Event = std::pair<double, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> Heap;
  for (uint32_t I = 0; I != Events; ++I)
    Heap.push({static_cast<double>(Next() >> 11) * 0x1p-53, I});
  std::string Text;
  char Buf[32];
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != Steps; ++I) {
    const auto [Now, Id] = Heap.top();
    Heap.pop();
    const uint64_t R = Next();
    Table[(R >> 17) % TableWords] += Id;
    const double U = static_cast<double>(R >> 11) * 0x1p-53;
    Heap.push({Now - std::log1p(-U) * 1e-3, Id});
    if (I % 8 == 0) {
      Text.append(Buf, std::snprintf(Buf, sizeof Buf, "%.9f,", Now));
      if (Text.size() > 4096) {
        Sum += Text.size() + static_cast<uint64_t>(Text[17]);
        Text.clear();
      }
    }
  }
  return Sum + Table[X % TableWords] + Heap.top().second;
}

/// Keeps the kernel's result alive.
volatile uint64_t KernelSink = 0;

} // namespace

void ReferenceSpeed::sample() {
  const double T = now();
  const SteadyClock::time_point T0 = SteadyClock::now();
  KernelSink = KernelSink + referenceKernel();
  KernelSeconds.push_back(secondsSince(T0));
  At.push_back(T);
}

void ReferenceSpeed::report() const {
  std::fprintf(stderr,
               "perfbench: reference kernel %.4f ms median over %zu samples "
               "(nominal %.4f ms)\n",
               kernelSeconds() * 1e3, KernelSeconds.size(),
               NominalSeconds * 1e3);
}

double ReferenceSpeed::factorAt(double When) const {
  if (At.empty())
    return 1.0;
  constexpr size_t Nearest = 9;
  // At is increasing: take the Nearest samples around When, shifted to
  // stay inside the run.
  const size_t Pos = static_cast<size_t>(
      std::lower_bound(At.begin(), At.end(), When) - At.begin());
  const size_t Count = std::min(Nearest, At.size());
  size_t First = Pos > Count / 2 ? Pos - Count / 2 : 0;
  First = std::min(First, At.size() - Count);
  return NominalSeconds /
         median(std::vector<double>(KernelSeconds.begin() + First,
                                    KernelSeconds.begin() + First + Count));
}

void Samples::add(double Value) {
  if (Seen++ % Stride != 0)
    return;
  Kept.push_back(Value);
  if (Kept.size() < Cap)
    return;
  size_t Out = 0;
  for (size_t I = 0; I < Kept.size(); I += 2)
    Kept[Out++] = Kept[I];
  Kept.resize(Out);
  Stride *= 2;
}

double Samples::percentile(double Q) const {
  if (Kept.empty())
    return 0.0;
  std::vector<double> Sorted = Kept;
  const size_t Rank = static_cast<size_t>(
      std::ceil(std::clamp(Q, 0.0, 1.0) * static_cast<double>(Sorted.size())));
  const size_t Index = Rank == 0 ? 0 : Rank - 1;
  std::nth_element(Sorted.begin(), Sorted.begin() + Index, Sorted.end());
  return Sorted[Index];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  const size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  if (Values.size() % 2 == 1)
    return Values[Mid];
  const double Upper = Values[Mid];
  const double Lower = *std::max_element(Values.begin(), Values.begin() + Mid);
  return (Lower + Upper) / 2.0;
}

double perfbench::peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the launching process's image across exec.
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return 0.0;
  char Line[256];
  double Kib = 0.0;
  while (std::fgets(Line, sizeof Line, Status))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kib) == 1)
      break;
  std::fclose(Status);
  return Kib / 1024.0;
}

uint64_t perfbench::requestSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void Outcome::fail(const std::string &Message) {
  Errors.push_back(Message);
}

double perfbench::windowPercentile(const std::vector<double> &At,
                                   const std::vector<double> &Values,
                                   double Q, double Beyond) {
  double End = 0.0;
  for (double T : At)
    End = std::max(End, T);
  const double Needed = Beyond / std::max(1.0 - Q, 1e-6);
  const double Length =
      std::max(WindowSeconds,
               At.empty() ? 0.0 : End * Needed / static_cast<double>(At.size()));
  return windowMedian(At, Length, [&](const std::vector<size_t> &Window) {
    Samples S;
    for (size_t I : Window)
      S.add(Values[I]);
    return S.percentile(Q);
  });
}

void perfbench::setSimulatedEndToEnd(Outcome &Out,
                                     const std::vector<RequestTime> &Times,
                                     const ReferenceSpeed &Ref,
                                     const std::vector<double> &Units,
                                     double VerifiedUnits,
                                     double SetupSeconds,
                                     double TailSamples) {
  std::vector<double> At, Seconds, LatencyMs;
  double TotalUnits = 0.0;
  for (size_t I = 0; I != Times.size(); ++I) {
    At.push_back(Times[I].At);
    Seconds.push_back(Ref.toReference(Times[I].Seconds, Times[I].At));
    LatencyMs.push_back(Seconds.back() * 1e3);
    TotalUnits += Units[I];
  }
  Out.set("setup_s", SetupSeconds);
  // The median request's rate, not total units over total time: on a
  // shared host the mean follows the few seconds when neighbours leave
  // the cache alone.
  std::vector<double> Rates;
  for (size_t I = 0; I != Times.size(); ++I)
    Rates.push_back(Units[I] / Seconds[I]);
  Out.set("throughput_per_s", median(std::move(Rates)));
  Out.set("latency_p50_ms", windowPercentile(At, LatencyMs, 0.50, TailSamples));
  Out.set("latency_p99_ms", windowPercentile(At, LatencyMs, 0.99, TailSamples));
  Out.set("verified_frac", TotalUnits > 0.0 ? VerifiedUnits / TotalUnits : 0.0);
  Out.set("peak_rss_mb", peakRssMb());
  Ref.report();
}
