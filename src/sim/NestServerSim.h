//===- sim/NestServerSim.h - Two-level nest server simulation --*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discrete-event simulation of the paper's motivating server scenario
/// (Sec. 2, Fig. 1): user transactions arrive in a Poisson stream into a
/// work queue; the outer loop processes up to DoP_outer transactions
/// concurrently; each transaction is served with inner DoP extent m,
/// taking T1 / S(m) seconds on the simulated C-context platform.
///
/// The simulation drives real Mechanism objects (WQT-H, WQ-Linear,
/// statics) through the standard snapshot interface at a fixed decision
/// cadence, charges a pause for every applied reconfiguration, and
/// reports the Fig. 2 metrics: per-transaction execution time,
/// system throughput, and end-user response time
/// (T_response = wait-in-queue + T_exec, Eqn. 1).
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SIM_NESTSERVERSIM_H
#define DOPE_SIM_NESTSERVERSIM_H

#include "core/ControlLoop.h"
#include "core/Task.h"
#include "metrics/ResponseStats.h"
#include "metrics/TimeSeries.h"
#include "sim/EventQueue.h"
#include "support/SpeedupCurve.h"
#include "support/MovingAverage.h"
#include "support/Random.h"
#include "support/Trace.h"
#include "workload/Arrivals.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

namespace dope {

/// Scalability model of one application's transaction (inner loop).
struct NestAppModel {
  std::string Name = "app";
  /// T1: sequential service time of one transaction, in seconds.
  double SeqServiceSeconds = 1.0;
  /// S(m): inner-parallelization speedup curve.
  SpeedupCurve Curve;
  /// Coefficient of variation of per-transaction service time.
  double ServiceCv = 0.2;
};

/// Simulation options.
struct NestSimOptions {
  /// Hardware contexts of the simulated platform (paper: 24).
  unsigned Contexts = 24;
  /// Offered load as a fraction of the platform's maximum sustainable
  /// throughput C / T1 (the paper's "average system load factor").
  double LoadFactor = 0.5;
  /// Optional time-varying load schedule. When non-empty it overrides
  /// LoadFactor: the instantaneous arrival rate follows
  /// Trace.loadFactorAt(now) * maxThroughput(). This drives the
  /// light/heavy swings ("periods of heavier and lighter load",
  /// Sec. 8.2.1) that the hysteresis mechanisms are designed to ride.
  LoadTrace Trace;
  /// Transactions to simulate (the paper used N = 500).
  uint64_t NumTransactions = 500;
  /// Seed for arrivals and service jitter.
  uint64_t Seed = 42;
  /// Cadence of mechanism decisions.
  double DecisionIntervalSeconds = 0.25;
  /// Pause charged when a reconfiguration is applied (suspend + drain +
  /// respawn).
  double ReconfigPauseSeconds = 0.02;
  /// Slowdown exponent applied when the configuration oversubscribes the
  /// platform (k * m > C): service inflates by (k*m/C)^(1+Penalty).
  double OversubscribePenalty = 0.25;
  /// Transactions excluded from statistics at the start (warm-up).
  uint64_t WarmupTransactions = 0;
  /// Safety bound on virtual time.
  double MaxSimSeconds = 1e6;
  /// Structured tracer recording work-queue depth, mechanism decisions,
  /// and reconfigurations in virtual time; null disables tracing. During
  /// run() the tracer's clock is retargeted to the simulator's virtual
  /// clock (and restored afterwards). Named TraceSink because Trace above
  /// is the load schedule.
  Tracer *TraceSink = nullptr;
  /// Also emit TaskBegin/TaskEnd records for every transaction service
  /// (Name = app task, A = transaction id). Off by default: instance
  /// records are per-transaction and dominate trace volume; the what-if
  /// profiler turns them on to reconstruct the spawn DAG.
  bool TraceTaskInstances = false;
};

/// Results of one simulated run.
struct NestSimResult {
  ResponseStats Stats;
  uint64_t Reconfigurations = 0; // == Verdicts.Accepted
  /// The control loop's verdicts; with NoLease, OverEnvelope stays 0.
  VerdictCounts Verdicts;
  /// Inner-extent decisions over time, for traces.
  TimeSeries InnerExtentTrace{"inner-extent"};
  /// Total virtual time of the run.
  double TotalSeconds = 0.0;
  /// Completed transactions per second over the whole run.
  double Throughput = 0.0;
};

/// The simulator. One instance can run many experiments; each run is
/// deterministic given the options' seed.
class NestServerSim {
public:
  NestServerSim(NestAppModel App, NestSimOptions Opts);

  /// Runs the workload under \p Mech (nullptr = keep the initial static
  /// configuration <InitialOuter, InitialInner> forever).
  NestSimResult run(Mechanism *Mech, unsigned InitialOuter,
                    unsigned InitialInner);

  /// The arrival rate implied by the options (transactions/second).
  double arrivalRate() const;

  /// Maximum sustainable throughput per the paper's definition: all
  /// contexts serving sequential transactions, C / T1.
  double maxThroughput() const;

  const NestAppModel &app() const { return App; }
  const ParDescriptor *rootRegion() const { return Root; }

private:
  struct Job {
    double ArrivalTime = 0.0;
    double StartTime = 0.0;
    unsigned InnerExtent = 1;
    /// Arrival-order transaction id, stamped into TaskBegin/TaskEnd
    /// instance records.
    uint64_t Id = 0;
  };

  /// Builds the model task graph the mechanisms navigate.
  void buildGraph();

  NestAppModel App;
  NestSimOptions Opts;

  TaskGraph Graph;
  ParDescriptor *Root = nullptr;
  Task *OuterTask = nullptr;
  Task *InnerTask = nullptr;
};

} // namespace dope

#endif // DOPE_SIM_NESTSERVERSIM_H
