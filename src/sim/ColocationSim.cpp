//===- sim/ColocationSim.cpp - Multi-tenant platform simulator -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Execution model (see DESIGN.md §14): one loop of fixed fluid steps.
// Each step advances every tenant's arrivals and service; at each
// arbiter epoch edge the same loop reports every tenant's telemetry in
// spec order, runs the arbiter (and any outage transition), and applies
// the resulting lease changes to tenant state directly.
//
//===----------------------------------------------------------------------===//

#include "sim/ColocationSim.h"

#include "support/Random.h"
#include "support/RingDeque.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace dope;

const char *dope::toString(ColocationPolicy Policy) {
  switch (Policy) {
  case ColocationPolicy::Arbiter:
    return "arbiter";
  case ColocationPolicy::StaticSplit:
    return "static-split";
  case ColocationPolicy::Oversubscribed:
    return "oversubscribed";
  }
  return "?";
}

namespace {

/// Pipeline throughput at \p K threads: greedy replication — grow the
/// bottleneck parallel stage until threads run out; below one thread
/// per stage the pipeline time-multiplexes and throughput is
/// CPU-bound at K / sum(s_i).
double pipelineCapacity(const PipelineAppModel &M, unsigned K) {
  if (K == 0 || M.Stages.empty())
    return 0.0;
  double TotalService = 0.0;
  for (const PipelineStageSpec &S : M.Stages)
    TotalService += S.ServiceSeconds;
  if (TotalService <= 0.0)
    return 0.0;
  const unsigned NumStages = static_cast<unsigned>(M.Stages.size());
  if (K < NumStages) {
    // Time-multiplexed: CPU-bound at K / sum(s_i), but never above what
    // the one-replica-per-stage pipeline sustains — keeps capacity
    // monotone across the K == NumStages boundary.
    double MinStageRate = std::numeric_limits<double>::infinity();
    for (const PipelineStageSpec &S : M.Stages)
      MinStageRate = std::min(MinStageRate, 1.0 / S.ServiceSeconds);
    return std::min(static_cast<double>(K) / TotalService, MinStageRate);
  }

  std::vector<unsigned> Extent(M.Stages.size(), 1);
  for (unsigned Spare = K - NumStages; Spare != 0; --Spare) {
    size_t Bottleneck = M.Stages.size();
    double WorstRate = std::numeric_limits<double>::infinity();
    for (size_t I = 0; I != M.Stages.size(); ++I) {
      if (!M.Stages[I].Parallel)
        continue;
      const double Rate = Extent[I] / M.Stages[I].ServiceSeconds;
      if (Rate < WorstRate) {
        WorstRate = Rate;
        Bottleneck = I;
      }
    }
    if (Bottleneck == M.Stages.size())
      break; // all stages sequential; extra threads are useless
    ++Extent[Bottleneck];
  }
  double Rate = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I != M.Stages.size(); ++I)
    Rate = std::min(Rate, Extent[I] / M.Stages[I].ServiceSeconds);
  return Rate;
}

/// Nested-parallel server throughput at \p K threads: pick the inner
/// extent m maximizing (K / m) * S(m) concurrent streams of 1/T1 each.
double nestCapacity(const NestAppModel &M, unsigned K, unsigned *BestM) {
  if (K == 0 || M.SeqServiceSeconds <= 0.0)
    return 0.0;
  double Best = 0.0;
  unsigned BestExtent = 1;
  for (unsigned Mi = 1; Mi <= K; ++Mi) {
    const double Streams = static_cast<double>(K) / Mi;
    const double Rate =
        Streams * M.Curve.speedup(Mi) / M.SeqServiceSeconds;
    if (Rate > Best) {
      Best = Rate;
      BestExtent = Mi;
    }
  }
  if (BestM)
    *BestM = BestExtent;
  return Best;
}

double percentileOf(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] * (1.0 - Frac) + Values[Hi] * Frac;
}

/// One tenant: its fluid service model, per-epoch telemetry window, and
/// the control state the lease protocol sets.
struct TenantRuntime {
  double ServiceCredit = 0.0;
  double PausedUntil = 0.0;
  RingDeque<double> Queue; // arrival timestamps
  Rng Arrivals{1};

  // Per-epoch telemetry window.
  uint64_t WindowArrived = 0;
  uint64_t WindowCompleted = 0;
  std::vector<double> WindowResponses;
  uint64_t EpochIndex = 0;

  unsigned Granted = 0;
  bool Crashed = false;   // process died (statically scheduled)
  bool Evicted = false;   // containment killed it; never comes back
  bool SelfFloor = false; // lease expired while alive: serving at floor

  TenantStats Stats;

  // Cached per-(policy, lease) capacity/latency.
  double Capacity = 0.0;
  double Latency = 0.0;
};

/// One run of the colocation model. Borrows specs and options from
/// ColocationSim; lives for a single run().
class ColocationEngine {
public:
  ColocationEngine(const std::vector<ColocationTenantSpec> &Specs,
                   const ColocationSimOptions &Opts)
      : Specs(Specs), Opts(Opts), N(Specs.size()), Trace(Opts.TraceSink),
        Dt(Opts.StepSeconds),
        OversubFactor(1.0 + Opts.OversubPenalty *
                                (static_cast<double>(N) - 1.0)) {
    ArbOpts = Opts.Arbiter;
    ArbOpts.TotalThreads = Opts.Contexts;
    ArbOpts.Trace = Trace;
    EpochLen = ArbOpts.EpochSeconds;
  }

  ColocationSimResult run();

private:
  /// Threads tenant I occupies: zero once dead or evicted; the
  /// self-preservation floor while its lease is expired but the process
  /// lives; its violation surplus on top of any live lease.
  unsigned usedThreads(size_t I) const {
    const TenantRuntime &T = Run[I];
    if (T.Crashed || T.Evicted)
      return 0;
    unsigned Base = T.Granted;
    if (Base == 0 && T.SelfFloor)
      Base = std::max(1u, Specs[I].Tenant.MinThreads);
    if (Base > 0)
      Base += Specs[I].Misbehavior.EnvelopeViolationThreads;
    return Base;
  }

  /// When misbehaving tenants occupy more contexts than exist, everyone's
  /// capacity shrinks pro rata. The thread sum moves only at epoch edges
  /// and crash crossings, so it is recomputed there, not every step.
  void updateContention() {
    unsigned Total = 0;
    for (size_t I = 0; I != N; ++I)
      Total += usedThreads(I);
    Contention = Total > Opts.Contexts
                     ? static_cast<double>(Opts.Contexts) / Total
                     : 1.0;
  }

  void refreshCurves(size_t I) {
    TenantRuntime &T = Run[I];
    const unsigned Used = usedThreads(I);
    T.Capacity = Used == 0 ? 0.0 : ColocationSim::capacity(Specs[I], Used);
    T.Latency = ColocationSim::serviceLatency(Specs[I], std::max(1u, Used));
    if (Opts.Policy == ColocationPolicy::Oversubscribed) {
      T.Capacity /= OversubFactor;
      T.Latency *= static_cast<double>(N) * OversubFactor;
    }
  }

  void setup();
  /// Flips tenants whose scheduled crash falls in the step ending at
  /// \p StepEnd.
  void crashTenants(double StepEnd);
  /// Advances every tenant through the step [Now, StepEnd).
  void step(double Now, double StepEnd);
  /// The arbiter's work at epoch edge \p E: outage transitions,
  /// telemetry in spec order, rebalance.
  void epochEdge(double E);
  void applyChanges(const std::vector<LeaseChange> &Changes, double Now);
  void restartArbiter(double Now);

  /// Appends every tenant's grant at \p Time (Arbiter policy only).
  void recordAllocation(double Time) {
    if (Opts.Policy != ColocationPolicy::Arbiter)
      return;
    AllocationSample Sample;
    Sample.Time = Time;
    for (const TenantRuntime &T : Run)
      Sample.Granted.push_back(T.Granted);
    Result.AllocationTimeline.push_back(std::move(Sample));
  }

  void journalRecord(double Time, TraceKind Kind, const std::string &Name,
                     double A, double B, std::string Detail) {
    TraceRecord R;
    R.Time = Time;
    R.Kind = Kind;
    R.Name = Name;
    R.A = A;
    R.B = B;
    R.Detail = std::move(Detail);
    Result.ProtocolJournal.push_back(std::move(R));
  }

  const std::vector<ColocationTenantSpec> &Specs;
  const ColocationSimOptions &Opts;
  const size_t N;
  Tracer *Trace;
  const double Dt;
  double EpochLen = 0.0;
  const double OversubFactor;
  ArbiterOptions ArbOpts;

  std::vector<TenantRuntime> Run;
  double Contention = 1.0;

  std::unique_ptr<Arbiter> Arb;
  std::vector<TenantId> Ids;
  bool ArbKilled = false;
  bool ArbRestarted = false;
  std::string SnapshotJson; // taken at kill time for Snapshot restarts
  ColocationSimResult Result;
};

void ColocationEngine::setup() {
  Run.resize(N);
  Ids.resize(N, 0);
  if (Opts.Policy == ColocationPolicy::Arbiter)
    Arb = std::make_unique<Arbiter>(ArbOpts);

  for (size_t I = 0; I != N; ++I) {
    TenantRuntime &T = Run[I];
    T.Arrivals = Rng(Opts.Seed + 0x9e37 * (I + 1));
    T.Stats.Name = Specs[I].Tenant.Name;
    T.Stats.LatencySensitive =
        Specs[I].Tenant.Goal == TenantGoal::ResponseTime;
    T.Stats.Weight = Specs[I].Tenant.Weight;
    T.Stats.SloSeconds = Specs[I].Tenant.SloSeconds;

    switch (Opts.Policy) {
    case ColocationPolicy::Arbiter:
      Ids[I] = Arb->addTenant(Specs[I].Tenant, 0.0);
      break;
    case ColocationPolicy::StaticSplit: {
      const unsigned Equal =
          std::max(1u, Opts.Contexts / static_cast<unsigned>(N));
      T.Granted = I < Opts.StaticShares.size() && Opts.StaticShares[I] > 0
                      ? Opts.StaticShares[I]
                      : Equal;
      break;
    }
    case ColocationPolicy::Oversubscribed:
      // Fair-share slice of the thrashing machine.
      T.Granted = std::max(1u, Opts.Contexts / static_cast<unsigned>(N));
      break;
    }
  }
  // Read seats only after every tenant has joined — each join re-splits
  // the pool, so earlier reads would hold stale (overcommitted) grants.
  if (Opts.Policy == ColocationPolicy::Arbiter) {
    for (size_t I = 0; I != N; ++I) {
      Run[I].Granted = Arb->leaseOf(Ids[I]).Threads;
      journalRecord(0.0, TraceKind::LeaseGrant, Run[I].Stats.Name,
                    static_cast<double>(Run[I].Granted), 0.0, "join");
    }
  }
  for (size_t I = 0; I != N; ++I)
    refreshCurves(I);
  recordAllocation(0.0);
  updateContention();
}

void ColocationEngine::crashTenants(double StepEnd) {
  bool Crossed = false;
  for (size_t I = 0; I != N; ++I) {
    TenantRuntime &T = Run[I];
    const double At = Specs[I].Misbehavior.CrashSeconds;
    if (T.Crashed || At < 0.0 || StepEnd <= At)
      continue;
    T.Crashed = true;
    refreshCurves(I);
    Crossed = true;
    journalRecord(At, TraceKind::Fault, Specs[I].Tenant.Name, 0.0, 0.0,
                  "tenant-crash");
    if (Trace)
      Trace->recordAt(At, TraceKind::Fault, "crash:" + Specs[I].Tenant.Name);
  }
  if (Crossed)
    updateContention();
}

void ColocationEngine::step(double Now, double StepEnd) {
  const bool Measured = StepEnd > Opts.WarmupSeconds;

  for (size_t I = 0; I != N; ++I) {
    TenantRuntime &T = Run[I];
    const ColocationTenantSpec &S = Specs[I];
    ++Result.SimulatedEvents; // the tenant-step update itself

    // Arrivals over this step (users keep sending to dead tenants).
    const double Load = S.ArrivalSchedule.phaseCount() == 0
                            ? 1.0
                            : S.ArrivalSchedule.loadFactorAt(Now);
    const double Rate = S.ArrivalRate * Load;
    const uint64_t Arrived =
        Rate > 0.0 ? T.Arrivals.poisson(Rate * Dt) : 0;
    Result.SimulatedEvents += Arrived;
    for (uint64_t A = 0; A != Arrived; ++A) {
      ++T.WindowArrived;
      if (Measured)
        ++T.Stats.Arrived;
      if (S.AdmissionLimit != 0 && T.Queue.size() >= S.AdmissionLimit) {
        if (Measured)
          ++T.Stats.Shed;
        continue;
      }
      T.Queue.push_back(Now);
    }

    // Service: fluid capacity accrues credit; whole items complete.
    const double Cap =
        (StepEnd <= T.PausedUntil ? 0.0 : T.Capacity) * Contention;
    T.ServiceCredit += Cap * Dt;
    while (T.ServiceCredit >= 1.0 && !T.Queue.empty()) {
      T.ServiceCredit -= 1.0;
      const double Arrival = T.Queue.front();
      T.Queue.pop_front();
      const double Completion = StepEnd + T.Latency;
      const double Response = Completion - Arrival;
      ++T.WindowCompleted;
      ++Result.SimulatedEvents;
      T.WindowResponses.push_back(Response);
      if (Measured) {
        ++T.Stats.Completed;
        T.Stats.Responses.recordTransaction(Arrival, StepEnd, Completion);
        if (T.Stats.SloSeconds > 0.0 && Response <= T.Stats.SloSeconds)
          ++T.Stats.SloHits;
        else if (T.Stats.SloSeconds <= 0.0)
          ++T.Stats.SloHits; // no SLO: every completion counts
      }
    }
    if (T.Queue.empty())
      T.ServiceCredit = std::min(T.ServiceCredit, 1.0);

    T.Stats.ThreadSeconds += usedThreads(I) * Dt;
  }
}

void ColocationEngine::epochEdge(double E) {
  // Arbiter outage transitions happen on the edge, before any
  // reporting: a killed arbiter hears nothing this epoch.
  if (Opts.Policy == ColocationPolicy::Arbiter && Opts.Outage.enabled()) {
    if (!ArbKilled && E + 1e-12 >= Opts.Outage.KillSeconds) {
      SnapshotJson = Arb->snapshot().dump();
      Arb.reset();
      ArbKilled = true;
      journalRecord(E, TraceKind::Fault, "arbiter", 0.0, 0.0, "kill");
      if (Trace)
        Trace->recordAt(E, TraceKind::Fault, "arbiter-kill");
    }
    if (ArbKilled && !ArbRestarted && Opts.Outage.RestartSeconds >= 0.0 &&
        E + 1e-12 >= Opts.Outage.RestartSeconds) {
      restartArbiter(E);
      ArbRestarted = true;
    }
  }
  const bool ArbUp =
      Opts.Policy == ColocationPolicy::Arbiter && Arb != nullptr;

  // Telemetry in spec order, the order the injector's RNG stream is
  // consumed in.
  for (size_t I = 0; I != N; ++I) {
    TenantRuntime &T = Run[I];
    const TenantMisbehavior &M = Specs[I].Misbehavior;
    const double QueueDepth = static_cast<double>(T.Queue.size());
    if (Opts.Policy == ColocationPolicy::Arbiter) {
      TenantSample Sample;
      Sample.Time = E;
      Sample.Throughput = static_cast<double>(T.WindowCompleted) / EpochLen;
      Sample.OfferedRate = static_cast<double>(T.WindowArrived) / EpochLen;
      Sample.P95ResponseSeconds = percentileOf(T.WindowResponses, 0.95);
      Sample.QueueDepth = QueueDepth;
      // Grants as of this edge, after any kill/restart transition.
      Sample.GrantedThreads = usedThreads(I);
      if (M.byzantineAt(E)) {
        Sample.Throughput *= M.ReportedRateFactor;
        Sample.OfferedRate *= M.ReportedRateFactor;
        if (M.NonMonotoneClock && (T.EpochIndex & 1))
          Sample.Time = E - 1.5 * EpochLen;
      }
      bool Sent = !T.Crashed && !T.Evicted && !M.silentAt(E);
      if (Sent && Opts.Faults && Opts.Faults->dropHeartbeat())
        Sent = false;
      if (Sent)
        // The host journals every report the tenant emits, even while
        // the arbiter is down — this is what a WarmTrace restart
        // replays.
        journalRecord(Sample.Time, TraceKind::Heartbeat, T.Stats.Name,
                      static_cast<double>(Sample.GrantedThreads),
                      Sample.Throughput,
                      Sample.OfferedRate > Sample.Throughput ||
                              Sample.QueueDepth > 0.0
                          ? "saturated"
                          : "");
      if (Sent && ArbUp)
        Arb->reportSample(Ids[I], Sample);
    }
    if (Trace) {
      Trace->recordAt(E, TraceKind::Counter, "threads:" + T.Stats.Name,
                      static_cast<double>(T.Granted));
      Trace->recordAt(E, TraceKind::Counter, "queue:" + T.Stats.Name,
                      QueueDepth);
    }
    T.WindowArrived = 0;
    T.WindowCompleted = 0;
    T.WindowResponses.clear();
    ++T.EpochIndex;
  }

  if (ArbUp)
    applyChanges(Arb->rebalance(E), E);
  recordAllocation(E);
  updateContention();
}

void ColocationEngine::applyChanges(const std::vector<LeaseChange> &Changes,
                                    double Now) {
  Result.LeaseChanges += Changes.size();
  for (const LeaseChange &Ch : Changes) {
    for (size_t I = 0; I != N; ++I) {
      TenantRuntime &T = Run[I];
      if (T.Stats.Name != Ch.Tenant)
        continue;
      T.Granted = Ch.NewThreads;
      if (Ch.Reason == "evict") {
        // Containment: the platform kills the tenant's workers.
        T.Evicted = true;
        T.SelfFloor = false;
      } else if (Ch.Reason == "expire") {
        // A live tenant whose lease expired (heartbeats lost in
        // transit) shrinks itself to its floor, like a Dope executive
        // whose envelope TTL lapsed; a dead one is simply gone.
        T.SelfFloor = !T.Crashed;
      } else if (Ch.NewThreads > 0) {
        T.SelfFloor = false;
      }
      // A live tenant loses capacity while it quiesces into the lease.
      if (!T.Crashed && !T.Evicted)
        T.PausedUntil = Now + Opts.ReconfigPauseSeconds;
      ++T.Stats.LeaseChanges;
      refreshCurves(I);
      journalRecord(Now,
                    Ch.Reason == "expire" ? TraceKind::LeaseExpire
                    : Ch.isGrant()        ? TraceKind::LeaseGrant
                                          : TraceKind::LeaseRevoke,
                    Ch.Tenant, static_cast<double>(Ch.NewThreads),
                    static_cast<double>(Ch.OldThreads), Ch.Reason);
    }
  }
}

void ColocationEngine::restartArbiter(double Now) {
  Arb = std::make_unique<Arbiter>(ArbOpts);
  bool Restored = false;
  if (Opts.Outage.Mode == ArbiterOutage::RestartMode::Snapshot) {
    std::string Err;
    const std::optional<JsonValue> Snap =
        JsonValue::parse(SnapshotJson, &Err);
    Restored = Snap.has_value() && Arb->restore(*Snap);
  }
  if (!Restored) {
    // Cold and WarmTrace paths: live tenants re-register. WarmTrace
    // then replays the host journal so the arbiter re-learns utility
    // curves and the actual holdings instead of starting from an
    // equal split; Cold really does start from the naive re-split
    // (that is the slow path warm restarts are measured against).
    const bool Warm =
        Opts.Outage.Mode == ArbiterOutage::RestartMode::WarmTrace;
    // Tenants that died during the outage are gone for good: the
    // reborn arbiter never hears of them, so release their journaled
    // leases before the survivors are seated.
    for (size_t I = 0; I != N; ++I) {
      TenantRuntime &T = Run[I];
      if ((T.Crashed || T.Evicted) && T.Granted > 0) {
        journalRecord(Now, TraceKind::LeaseExpire, T.Stats.Name, 0.0,
                      static_cast<double>(T.Granted), "restart-gc");
        T.Granted = 0;
        refreshCurves(I);
      }
    }
    for (size_t I = 0; I != N; ++I) {
      if (Run[I].Crashed || Run[I].Evicted)
        continue;
      Ids[I] = Arb->addTenant(Specs[I].Tenant, Now, nullptr);
      if (Warm)
        // Re-registering is itself proof of liveness; journal it so a
        // (later) warm restart and the invariant checker see it.
        journalRecord(Now, TraceKind::Heartbeat, Run[I].Stats.Name,
                      static_cast<double>(Run[I].Granted), 0.0,
                      "re-register");
    }
    if (Warm)
      Arb->warmStart(Result.ProtocolJournal);
    // Transition runtime holdings to the reborn arbiter's seats as
    // one batch, revocations first, so the hand-over never
    // overcommits the platform. Under WarmTrace the seats were
    // re-aligned with the journal and the batch is usually empty.
    std::vector<LeaseChange> Shrink, Grow;
    for (size_t I = 0; I != N; ++I) {
      const TenantRuntime &T = Run[I];
      if (T.Crashed || T.Evicted)
        continue;
      const unsigned New = Arb->leaseOf(Ids[I]).Threads;
      if (New == T.Granted)
        continue;
      LeaseChange C;
      C.Tenant = T.Stats.Name;
      C.Time = Now;
      C.OldThreads = T.Granted;
      C.NewThreads = New;
      C.Reason = "restart";
      (New < T.Granted ? Shrink : Grow).push_back(std::move(C));
    }
    applyChanges(Shrink, Now);
    applyChanges(Grow, Now);
  }
  journalRecord(Now, TraceKind::Fault, "arbiter", 0.0, 0.0,
                Restored ? "restart:snapshot"
                : Opts.Outage.Mode == ArbiterOutage::RestartMode::WarmTrace
                    ? "restart:warm-trace"
                    : "restart:cold");
  if (Trace)
    Trace->recordAt(Now, TraceKind::Fault, "arbiter-restart");
}

ColocationSimResult ColocationEngine::run() {
  setup();

  // The step grid and epoch edges are float accumulators (Now += Dt,
  // NextEpoch += EpochLen); the golden results depend on them exactly.
  double Now = 0.0;
  double NextEpoch = EpochLen;
  while (Now < Opts.DurationSeconds - 1e-12) {
    const double StepEnd = Now + Dt;
    crashTenants(StepEnd);
    step(Now, StepEnd);
    Now += Dt;
    if (StepEnd + 1e-12 >= NextEpoch) {
      epochEdge(NextEpoch);
      NextEpoch += EpochLen;
    }
  }

  Result.DurationSeconds = Opts.DurationSeconds;
  for (TenantRuntime &T : Run)
    Result.Tenants.push_back(std::move(T.Stats));
  Result.Fairness = summarizeTenants(Result.Tenants);
  return Result;
}

} // namespace

double ColocationSim::capacity(const ColocationTenantSpec &Spec,
                               unsigned Threads) {
  if (Spec.Kind == ColocationTenantSpec::AppKind::Pipeline)
    return pipelineCapacity(Spec.Pipeline, Threads);
  return nestCapacity(Spec.Nest, Threads, nullptr);
}

double ColocationSim::serviceLatency(const ColocationTenantSpec &Spec,
                                     unsigned Threads) {
  if (Spec.Kind == ColocationTenantSpec::AppKind::Pipeline) {
    double Total = 0.0;
    for (const PipelineStageSpec &S : Spec.Pipeline.Stages)
      Total += S.ServiceSeconds;
    return Total;
  }
  unsigned BestM = 1;
  nestCapacity(Spec.Nest, std::max(1u, Threads), &BestM);
  return Spec.Nest.SeqServiceSeconds / Spec.Nest.Curve.speedup(BestM);
}

ColocationSim::ColocationSim(std::vector<ColocationTenantSpec> Tenants,
                             ColocationSimOptions Options)
    : Specs(std::move(Tenants)), Opts(std::move(Options)) {
  assert(!Specs.empty() && "colocation needs at least one tenant");
  assert(Opts.Contexts >= Specs.size() && "a thread per tenant, minimum");
  assert(Opts.StepSeconds > 0.0 && Opts.DurationSeconds > 0.0);
  assert(Opts.Shards == 1 && "the simulator runs as one loop");
}

ColocationSimResult ColocationSim::run() {
  return ColocationEngine(Specs, Opts).run();
}
