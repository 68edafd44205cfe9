//===- sim/RecursiveSim.h - Recursive task-tree workload model -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded analytic model of a recursive divide-and-conquer region run by
/// the work-stealing runtime: N leaves of uniform cost are chopped into
/// tasks of Grain leaves each and executed by W workers in rounds. The
/// model reproduces both grain faults the GrainAdapt mechanism walks out
/// of, making throughput unimodal in the grain:
///
///   * too fine  — every task pays TaskOverheadSeconds (deque traffic,
///     steal churn), so total cost grows as N/g while the steal rate and
///     per-task cost signals read "thrash";
///   * too coarse — fewer tasks than workers leaves contexts idle
///     (round quantization) and per-task jitter no longer averages out
///     (the imbalance tail), while outstanding work reads "starved".
///
/// Epochs of LeavesPerEpoch leaves advance a virtual clock; after each
/// epoch the simulator snapshots the region (per-task cost, outstanding
/// load), publishes StealRate / MeanTaskSeconds through a feature
/// registry — the same signals the native TreeEngine exports — and
/// consults a real Mechanism through the standard interface, charging a
/// pause for every applied reconfiguration. Runs are deterministic given
/// the seed: identical decision logs and bit-identical throughput.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SIM_RECURSIVESIM_H
#define DOPE_SIM_RECURSIVESIM_H

#include "core/ControlLoop.h"
#include "core/Task.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dope {

/// Cost model of the recursive work.
struct RecursiveWorkModel {
  std::string Name = "descend";
  /// Work in one leaf, in seconds.
  double LeafSeconds = 2e-6;
  /// Fixed cost charged per task: spawn, deque traffic, the odd steal.
  double TaskOverheadSeconds = 30e-6;
  /// Fraction of tasks executed by a worker other than their spawner
  /// (randomized stealing keeps this roughly grain-independent).
  double StealFraction = 0.5;
  /// Per-epoch coefficient of variation of the leaf cost (input noise
  /// the adaptation must ride out).
  double JitterCv = 0.1;
  /// Weight of the imbalance tail: with T tasks on W workers the epoch
  /// stretches by (1 + ImbalanceWeight * W / T) because coarse tasks'
  /// jitter does not average out.
  double ImbalanceWeight = 0.5;
};

/// Simulation options.
struct RecursiveSimOptions {
  /// Worker contexts of the simulated platform.
  unsigned Workers = 8;
  /// Total leaves of the run.
  uint64_t Leaves = 1u << 20;
  /// Leaves processed between two mechanism consults.
  uint64_t LeavesPerEpoch = 1u << 16;
  /// Seed for the per-epoch service jitter.
  uint64_t Seed = 42;
  /// Pause charged when a reconfiguration is applied (drain + respawn).
  double ReconfigPauseSeconds = 1e-3;
};

/// Results of one simulated run.
struct RecursiveSimResult {
  /// Virtual seconds of the whole run, pauses included.
  double TotalSeconds = 0.0;
  /// Leaves per virtual second.
  double Throughput = 0.0;
  unsigned FinalGrain = 0;
  unsigned FinalExtent = 0;
  /// Rendered configuration of every applied decision, prefixed with
  /// the epoch index ("3: <(8, TREE, g=128)>") — the replay-identity
  /// tests compare these byte for byte.
  std::vector<std::string> DecisionLog;
  /// The control loop's verdicts (envelope: Workers); Accepted counts
  /// the applied reconfigurations.
  VerdictCounts Verdicts;
};

/// The simulator. One instance can run many experiments; each run is
/// deterministic given the options' seed.
class RecursiveSim {
public:
  RecursiveSim(RecursiveWorkModel Model, RecursiveSimOptions Opts);

  /// Runs the workload under \p Mech (nullptr = keep the initial
  /// <grain, extent> fixed forever — the baseline for convergence
  /// comparisons).
  RecursiveSimResult run(Mechanism *Mech, unsigned InitialGrain,
                         unsigned InitialExtent);

  /// Analytic epoch makespan for a fixed grain/extent at nominal leaf
  /// cost (jitter factor 1): exposes the unimodal shape to tests.
  double epochSeconds(unsigned Grain, unsigned Extent) const;

  const RecursiveWorkModel &model() const { return Model; }
  const ParDescriptor *rootRegion() const { return Root; }

private:
  RecursiveWorkModel Model;
  RecursiveSimOptions Opts;

  TaskGraph Graph;
  ParDescriptor *Root = nullptr;
  Task *TreeTask = nullptr;
};

} // namespace dope

#endif // DOPE_SIM_RECURSIVESIM_H
