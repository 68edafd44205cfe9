//===- core/Dope.h - The Degree of Parallelism Executive ------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DoPE run-time system (paper Secs. 3-6). The executive
///
///   * executes the registered parallelism description on a thread pool,
///   * monitors application features (per-task execution time between
///     Task::begin/Task::end, LoadCB samples) and platform features
///     (FeatureRegistry),
///   * periodically consults the selected Mechanism, and
///   * realizes configuration changes through the suspend / quiesce /
///     reconfigure protocol: begin/end return SUSPENDED, tasks steer to a
///     consistent state via FiniCBs, the executive re-runs InitCBs and
///     respawns task loops under the new configuration.
///
/// Lifecycle mirrors the paper's API (Table 2):
/// \code
///   DopeOptions Opts;
///   Opts.MaxThreads = 24;
///   Opts.Mech = std::make_unique<WqLinearMechanism>(...);
///   std::unique_ptr<Dope> D = Dope::create(RootRegion, std::move(Opts));
///   Dope::destroy(std::move(D)); // waits for registered tasks to end
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_DOPE_H
#define DOPE_CORE_DOPE_H

#include "core/Config.h"
#include "core/ControlLoop.h"
#include "core/Failure.h"
#include "core/FeatureRegistry.h"
#include "core/Monitor.h"
#include "core/Task.h"
#include "core/ThreadPool.h"
#include "core/Types.h"
#include "support/Compiler.h"
#include "support/ThreadAnnotations.h"
#include "support/Trace.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

namespace dope {

class Dope;

/// Shared state of one region epoch (defined in Dope.cpp). Heap-allocated
/// and reference-counted so replicas abandoned by the quiesce watchdog can
/// outlive the runRegion frame that spawned them and still count down
/// safely. Carries a parent pointer so abandoning a root epoch also steers
/// replicas of its nested inner regions out.
struct RegionRunState;

/// Per-replica handle passed to task functors; provides the paper's
/// Task::begin / Task::end / Task::wait methods plus introspection.
class TaskRuntime {
public:
  /// Signals that the CPU-intensive part of the task instance has begun.
  /// Returns SUSPENDED when the executive intends to reconfigure.
  DOPE_HOT TaskStatus begin();

  /// Signals that the CPU-intensive part has ended; records the instance's
  /// execution time. Returns SUSPENDED when reconfiguration is pending.
  DOPE_HOT TaskStatus end();

  /// Executes the task's active inner parallelism alternative to
  /// completion (one inner-loop lifetime), returning the status of the
  /// inner master task: FINISHED on normal completion, SUSPENDED when the
  /// run-time interrupted it for reconfiguration. Returns FINISHED
  /// immediately if the task has no active inner alternative.
  ///
  /// \p InnerContext is handed to every inner task replica through
  /// TaskRuntime::context(), letting shared inner functors address the
  /// per-transaction state (queues, buffers) of the invoking outer
  /// replica — several outer replicas may run inner regions
  /// concurrently.
  TaskStatus wait(void *InnerContext = nullptr);

  /// The context pointer the parent replica passed to wait(); null for
  /// root-region tasks.
  void *context() const { return UserContext; }

  /// True when the executive activated an inner parallelism alternative
  /// for this task; false means the functor should perform the work
  /// inline (the <(N, DOALL), (1, SEQ)> configurations of Sec. 2).
  bool innerActive() const { return Config.AltIndex >= 0; }

  /// The task this runtime serves.
  const Task &task() const { return TheTask; }

  /// This replica's index within the task's extent, in [0, extent()).
  unsigned replicaIndex() const { return Replica; }

  /// The extent the task currently runs at.
  unsigned extent() const { return Config.Extent; }

  /// Monotonic seconds (the executive's clock).
  double nowSeconds() const;

  TaskRuntime(const TaskRuntime &) = delete;
  TaskRuntime &operator=(const TaskRuntime &) = delete;

  /// Flushes any locally accumulated exec-time samples to the shared
  /// TaskMetrics. Called automatically on destruction (replica exit).
  ~TaskRuntime() { flushWindow(); }

private:
  friend class Dope;
  TaskRuntime(Dope &Executive, const Task &TheTask, const TaskConfig &Config,
              unsigned Replica, void *UserContext,
              const RegionRunState *Run = nullptr)
      : Executive(Executive), TheTask(TheTask), Config(Config),
        Replica(Replica), UserContext(UserContext), Run(Run) {}

  void flushWindow();

  /// True when the quiesce watchdog abandoned this replica's epoch (or an
  /// enclosing one): the executive moved on, and begin/end steer the
  /// replica out via SUSPENDED.
  bool abandoned() const;

  Dope &Executive;
  const Task &TheTask;
  const TaskConfig &Config;
  unsigned Replica;
  void *UserContext;
  const RegionRunState *Run;
  double BeginTime = -1.0;

  /// Replica-local exec-time accumulation window. Each replica owns one
  /// (the runtime lives on the replica's stack), so per-instance
  /// monitoring touches no shared cache line; the shared TaskMetrics
  /// mutex is taken only when the window flushes — every
  /// WindowMaxSamples instances, after WindowMaxSeconds, or on replica
  /// exit. Padded so two runtimes can never false-share.
  static constexpr uint32_t WindowMaxSamples = 64;
  static constexpr double WindowMaxSeconds = 0.005;
  struct alignas(64) ExecWindow {
    uint32_t Count = 0;
    double TotalSeconds = 0.0;
    double FirstSampleTime = 0.0;
  };
  ExecWindow Window;
};

/// Options for Dope::create.
struct DopeOptions {
  /// Thread budget (administrator constraint "with N threads").
  unsigned MaxThreads = std::thread::hardware_concurrency();

  /// Power budget in watts; <= 0 disables the constraint.
  double PowerBudgetWatts = 0.0;

  /// The adaptation mechanism. When null the executive runs the initial
  /// configuration statically.
  std::unique_ptr<Mechanism> Mech;

  /// Initial configuration; when empty the canonical default (all extents
  /// 1, first alternatives) is used.
  RegionConfig InitialConfig;

  /// Period of the monitoring / reconfiguration-decision loop.
  double MonitorIntervalSeconds = 0.005;

  /// Lower bound between two reconfigurations, damping thrash.
  double MinReconfigIntervalSeconds = 0.02;

  /// When non-empty, the executive records a structured trace of the run
  /// (feature samples, decisions, queue depths, task begin/end/wait,
  /// failure events) and writes it here at destruction. ".json" gets
  /// Chrome trace_event JSON (chrome://tracing / Perfetto); any other
  /// extension gets the compact JSONL decision log that `dope_trace`
  /// dumps, diffs, and summarizes.
  std::string TraceFile;

  /// External tracer to record into instead of an executive-owned one
  /// (harnesses that aggregate several runs into one trace). The caller
  /// keeps ownership and drains it; TraceFile is still honoured.
  Tracer *Trace = nullptr;

  /// Ring capacity per recording thread of the executive-owned tracer.
  size_t TraceCapacityPerThread = 65536;

  /// Watchdog deadline for quiescing a root-region epoch, in seconds.
  /// Once the epoch starts winding down (master replica 0 stopped —
  /// finished, suspended for reconfiguration, or failed), the remaining
  /// replicas have this long to stop. Replicas still running at the
  /// deadline are *abandoned*: their FiniCBs are forced (exactly once,
  /// closing downstream queues), an incident is recorded per stuck task,
  /// and the stuck threads are deducted from the "LiveContexts" feature so
  /// mechanisms re-plan the region at reduced DoP instead of the executive
  /// deadlocking. Must exceed the pipeline's worst-case drain time.
  /// 0 (the default) disables the watchdog.
  double QuiesceDeadlineSeconds = 0.0;

  /// Thread-envelope lease TTL in seconds; 0 (the default) disables
  /// expiry. When set, the envelope granted by setThreadEnvelope must be
  /// renewed (another setThreadEnvelope or renewThreadEnvelope call)
  /// within this long; an unrenewed envelope is treated as an expired
  /// lease — the arbiter that granted it may be dead or partitioned —
  /// and the executive gracefully shrinks to EnvelopeExpireFloor
  /// through the ordinary quiesce path (traced as LeaseExpire). No task
  /// is killed; a later renewal grows the envelope again.
  double EnvelopeTtlSeconds = 0.0;

  /// Envelope an expired lease shrinks to (clamped to [1, MaxThreads]):
  /// the self-preservation floor the executive assumes it may keep
  /// without a live arbiter.
  unsigned EnvelopeExpireFloor = 1;
};

/// The executive. One instance manages one root parallel region.
class Dope {
public:
  /// Launches the parallel application described by \p Root (paper:
  /// DoPE::create(ParDescriptor *pd)). Execution starts immediately on
  /// background threads.
  static std::unique_ptr<Dope> create(ParDescriptor *Root, DopeOptions Opts);

  /// Finalizes the run-time system: waits for registered tasks to end
  /// (paper: DoPE::destroy). Equivalent to D->wait(); D.reset().
  static void destroy(std::unique_ptr<Dope> D);

  ~Dope();
  Dope(const Dope &) = delete;
  Dope &operator=(const Dope &) = delete;

  /// Blocks until the root region's master task finishes or the run fails
  /// permanently; returns the run's final status (FINISHED or FAILED).
  TaskStatus wait();

  /// Blocks up to \p Seconds for the run to end. Returns true when the run
  /// ended within the deadline (query status() / failure() for the
  /// verdict), false on timeout.
  bool waitFor(double Seconds);

  /// The run's status without blocking: EXECUTING while the application is
  /// live, then FINISHED or FAILED.
  TaskStatus status() const;

  /// True once the root master task has returned FINISHED.
  bool finished() const;

  /// The first permanent task failure of the run, if any (the run's
  /// cause of death when status() == FAILED).
  std::optional<TaskFailure> failure() const { return Log.firstFailure(); }

  /// Counters of the run's failure events: retries, permanent failures,
  /// watchdog incidents.
  const FailureLog &failureLog() const { return Log; }

  /// Requests an orderly early shutdown: the application observes
  /// SUSPENDED, quiesces, and the run ends without respawning.
  void requestStop();

  //===--------------------------------------------------------------------===
  // Mechanism-developer API (paper Fig. 9)
  //===--------------------------------------------------------------------===

  /// Smoothed per-instance execution time of \p T in seconds.
  double getExecTime(const Task *T) const;

  /// Smoothed load on \p T (LoadCB samples).
  double getLoad(const Task *T) const;

  /// Registers a platform feature callback (e.g. "SystemPower").
  void registerCB(const std::string &Feature, FeatureFn Callback,
                  double MinSampleIntervalSeconds = 0.0);

  /// Reads a platform feature; std::nullopt when unregistered.
  std::optional<double> getValue(const std::string &Feature) const;

  //===--------------------------------------------------------------------===
  // Introspection (tests, examples, harnesses)
  //===--------------------------------------------------------------------===

  /// The configuration currently executing.
  RegionConfig currentConfig() const;

  /// Number of completed reconfigurations.
  uint64_t reconfigurationCount() const;

  /// Verdicts the control loop gave the mechanism's proposals so far
  /// (all zero without a mechanism). Thread-safe.
  VerdictCounts verdictCounts() const { return Loop.counts(); }

  /// Builds a monitored snapshot of the root region.
  RegionSnapshot snapshot() const;

  /// Thread budget the executive honours (the administrator's hard cap).
  unsigned maxThreads() const { return Options.MaxThreads; }

  //===--------------------------------------------------------------------===
  // Thread envelope (platform-arbiter lease)
  //===--------------------------------------------------------------------===

  /// Adjusts the runtime thread envelope — the share of the machine a
  /// platform arbiter currently leases to this executive. Clamped to
  /// [1, MaxThreads]. Shrinking below the active configuration's
  /// footprint triggers the suspend/quiesce protocol: the running epoch
  /// steers out at its next begin/end and the executive re-enters the
  /// region degraded to the new budget — no task is killed. Growing
  /// raises the ceiling mechanisms plan against (effectiveThreads) so
  /// the next decision can widen the configuration again. Thread-safe;
  /// callable at any time during the run.
  void setThreadEnvelope(unsigned Threads);

  /// The envelope currently in force, in [1, MaxThreads]. Equals
  /// MaxThreads unless a lease narrowed it.
  unsigned threadEnvelope() const {
    return Envelope.load(std::memory_order_acquire);
  }

  /// Renews the envelope lease without changing it — a heartbeat from
  /// the granting arbiter. Only meaningful with
  /// DopeOptions::EnvelopeTtlSeconds > 0 (setThreadEnvelope also
  /// renews). Thread-safe.
  void renewThreadEnvelope();

  /// Contexts still usable for planning: the thread envelope minus
  /// threads wedged inside abandoned replicas. Exported as the
  /// "LiveContexts" feature, so mechanisms sizing configurations with
  /// MechanismContext::effectiveThreads honour leases and core loss
  /// through one ceiling.
  unsigned liveThreads() const;

  /// The tracer recording this run, or null when tracing is off.
  Tracer *tracer() const { return Trace; }

private:
  friend class TaskRuntime;

  Dope(ParDescriptor *Root, DopeOptions Opts);

  /// Body of the epoch loop: run region, handle suspensions, apply new
  /// configurations until the master finishes.
  void runMain();

  /// Monitoring/decision loop body.
  void runController();

  /// Runs \p Region under \p Config until its master task finishes,
  /// suspends, or fails; returns the master's final status. \p UserContext
  /// reaches every replica through TaskRuntime::context(). \p IsRoot
  /// enables the quiesce watchdog (root-region epochs only; inner regions
  /// are covered by the root's watchdog through their parent replica).
  /// \p SpawnerName / \p SpawnerReplica identify the parent replica that
  /// opened this region (empty name for the root region); they flow into
  /// every replica's TaskBegin record so offline analysis can
  /// reconstruct the spawn DAG.
  TaskStatus runRegion(const ParDescriptor &Region, const RegionConfig &Config,
                       void *UserContext = nullptr, bool IsRoot = false,
                       const RegionRunState *Parent = nullptr,
                       const std::string &SpawnerName = {},
                       unsigned SpawnerReplica = 0);

  /// One replica's task loop: the executive's exception boundary. A
  /// throwing functor is retried per the task descriptor's RetryPolicy;
  /// exhaustion records the failure and returns FAILED.
  TaskStatus taskLoop(const Task &T, const TaskConfig &Config,
                      unsigned Replica, void *UserContext, RegionRunState &Run);

  /// Executes the active inner region of \p Config on behalf of a parent
  /// replica (Task::wait).
  TaskStatus runInnerRegion(const Task &Parent, unsigned ParentReplica,
                            const TaskConfig &Config, void *UserContext,
                            const RegionRunState *ParentRun);

  /// Records a replica's permanent failure (first one becomes the run's
  /// cause), marks the replica's epoch failed, and requests a global
  /// suspend so the rest of the application winds down.
  void recordReplicaFailure(const Task &T, unsigned Replica,
                            std::string Message, unsigned Attempts,
                            RegionRunState &Run);

  TaskMetrics &metricsFor(const Task &T);
  const TaskMetrics *metricsForIfPresent(const Task &T) const;

  /// Fills a RegionSnapshot subtree for \p Region with the extents of
  /// \p Active (may be null when the region is not currently configured).
  RegionSnapshot snapshotRegion(const ParDescriptor &Region,
                                const std::vector<TaskConfig> *Active) const;

  bool suspendRequested() const {
    return SuspendFlag.load(std::memory_order_acquire);
  }

  ParDescriptor *Root;
  DopeOptions Options;

  // State a replica may touch is declared before Pool: members are
  // destroyed in reverse order, and the pool destructor is the join point
  // for replicas the quiesce watchdog abandoned.
  FeatureRegistry Features;
  FailureLog Log;

  /// Tracing: Trace points at OwnedTrace or DopeOptions::Trace; null
  /// means tracing is off and every trace point is one pointer test.
  std::unique_ptr<Tracer> OwnedTrace;
  Tracer *Trace = nullptr;

  std::atomic<bool> SuspendFlag{false};
  /// Runtime thread envelope in [1, MaxThreads]; see setThreadEnvelope.
  std::atomic<unsigned> Envelope{1};
  /// monotonicSeconds() of the last envelope grant or renewal; the
  /// controller expires the lease when EnvelopeTtlSeconds lapse without
  /// one.
  std::atomic<double> EnvelopeRenewedAt{0.0};
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> FailFlag{false};
  std::atomic<bool> Finished{false};
  std::atomic<uint64_t> ReconfigCount{0};

  /// Threads wedged inside replicas the watchdog abandoned; permanently
  /// deducted from liveThreads() (conservative — not reclaimed even if a
  /// straggler eventually unblocks and exits).
  std::atomic<unsigned> LostThreads{0};

  // Task metrics, indexed by dense task id; created eagerly for the
  // whole graph reachable from Root so the per-instance hot path
  // (TaskRuntime::end) is one bounds-checked array load, not a hash
  // lookup.
  std::vector<std::unique_ptr<TaskMetrics>> Metrics;

  ThreadPool Pool;

  mutable std::mutex ConfigMutex;
  RegionConfig ActiveConfig DOPE_GUARDED_BY(ConfigMutex);
  /// Accepted by the controller, applied by runMain at the next epoch.
  std::optional<RegionConfig> PendingConfig DOPE_GUARDED_BY(ConfigMutex);

  double LastReconfigTime = 0.0; // controller thread only
  ControlLoop Loop{*Root, Options.Mech.get()}; // controller steps it

  std::thread MainThread;
  std::thread ControllerThread;

  mutable std::mutex DoneMutex;
  std::condition_variable DoneCond;
};

} // namespace dope

#endif // DOPE_CORE_DOPE_H
