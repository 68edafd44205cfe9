//===- arbiter/Arbiter.cpp - Platform parallelism arbiter ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "arbiter/Arbiter.h"

#include "support/Logging.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dope;

Arbiter::Arbiter(ArbiterOptions Opts) : Opts(std::move(Opts)) {
  assert(this->Opts.TotalThreads >= 1 && "platform needs at least a thread");
  assert(this->Opts.EpochSeconds > 0.0 && "epoch must be positive");
}

unsigned Arbiter::grantableThreads() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return grantableThreadsLocked();
}

unsigned Arbiter::grantableThreadsLocked() const {
  unsigned Pool = Opts.TotalThreads;
  if (Opts.PowerBudgetWatts > 0.0 && Opts.WattsPerThread > 0.0) {
    const double Avail =
        (Opts.PowerBudgetWatts - Opts.IdlePowerWatts) / Opts.WattsPerThread;
    const unsigned Capped =
        Avail <= 0.0 ? 0u : static_cast<unsigned>(std::floor(Avail));
    Pool = std::min(Pool, Capped);
  }
  // Liveness beats the power cap: every seated tenant keeps its floor
  // even when the budget would starve it (the cap then only squeezes
  // discretionary grants). Expired and evicted tenants hold nothing, so
  // they contribute no floor.
  unsigned Floors = 0;
  for (const TenantState &T : Tenants)
    if (seated(T))
      Floors += std::max(1u, T.Spec.MinThreads);
  return std::max(Pool, Floors);
}

const Arbiter::TenantState &Arbiter::stateOf(TenantId Id) const {
  auto It = std::lower_bound(
      Tenants.begin(), Tenants.end(), Id,
      [](const TenantState &T, TenantId Id) { return T.Id < Id; });
  assert(It != Tenants.end() && It->Id == Id && "unknown tenant id");
  return *It;
}

Arbiter::TenantState &Arbiter::stateOfMut(TenantId Id) {
  return const_cast<TenantState &>(
      static_cast<const Arbiter *>(this)->stateOf(Id));
}

Lease Arbiter::leaseOf(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const TenantState &T = stateOf(Id);
  return {T.Granted, T.Granted * Opts.WattsPerThread};
}

const TenantSpec &Arbiter::specOf(TenantId Id) const {
  // Specs are immutable after addTenant normalizes them, so handing the
  // reference out after dropping the lock is safe; the lock only
  // protects the lookup against concurrent add/remove.
  std::lock_guard<std::mutex> Lock(Mutex);
  return stateOf(Id).Spec;
}

size_t Arbiter::tenantCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Tenants.size();
}

double Arbiter::lastBidOf(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return stateOf(Id).LastBid;
}

bool Arbiter::isExpired(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return stateOf(Id).Expired;
}

bool Arbiter::isEvicted(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return stateOf(Id).Evicted;
}

double Arbiter::lastHeartbeatOf(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return stateOf(Id).LastHeartbeat;
}

CompliancePenalty Arbiter::penaltyOf(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const TenantState &T = stateOf(Id);
  return T.Evicted ? CompliancePenalty::Evict : T.Monitor.penalty();
}

double Arbiter::complianceScoreOf(TenantId Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return stateOf(Id).Monitor.score();
}

/// Absolute bid a latency tenant uses to defend held threads: above the
/// normalized marginal bid of any well-scaling tenant (<= ~1 x weight
/// for typical weights) but far below an SLO-urgency bid, so held
/// threads move only toward an emergency.
static constexpr double DefendBid = 2.0;

bool Arbiter::sloBurning(const TenantState &T) const {
  return T.Spec.Goal == TenantGoal::ResponseTime && T.Spec.SloSeconds > 0.0 &&
         T.HasSample && T.LastSample.P95ResponseSeconds > T.Spec.SloSeconds;
}

double Arbiter::bid(const TenantState &T, unsigned Have) const {
  // Base utility: normalized marginal speedup of thread Have+1 when the
  // estimator has a curve; harmonic equal-share bidding otherwise (the
  // 1/(k+1) schedule makes weighted water-filling converge to weighted
  // proportional shares among history-less tenants).
  double Utility;
  const SpeedupCurveFit &Fit = T.Estimator.fit();
  if (T.Estimator.hasHistory() && Fit.BaseRate > 0.0)
    Utility = T.Estimator.marginalRate(Have) / Fit.BaseRate;
  else
    Utility = 1.0 / static_cast<double>(Have + 1);

  // Demand: a tenant predicted to already serve its offered load (or
  // observed fully idle) bids for spare capacity at a deep discount.
  // Threads beyond covered demand have no utility to their holder no
  // matter how well the app would scale — without this, a learned
  // near-linear curve bids ~1 x weight for every thread on the machine.
  // A backlogged tenant needs drain headroom before its demand counts
  // as covered.
  if (T.HasSample) {
    const double Headroom = T.LastSample.QueueDepth >= 1.0 ? 1.5 : 1.0;
    const bool Saturating =
        T.LastSample.OfferedRate > 0.0 && T.Estimator.hasHistory() &&
        Fit.BaseRate > 0.0 &&
        T.Estimator.predictRate(std::max(1u, Have)) >=
            Headroom * T.LastSample.OfferedRate;
    const bool Idle =
        T.LastSample.OfferedRate <= 0.0 && T.LastSample.QueueDepth < 1.0;
    if (Saturating || Idle)
      Utility *= Opts.IdleBidDiscount;
  }

  // A backlogged tenant's held threads are all productive, even where
  // the one-more-thread marginal collapses (real capacity curves
  // quantize into plateaus — e.g. a pipeline whose bottleneck stage
  // needs two more replicas before throughput moves). Floor the bid
  // for held threads at the tenant's average normalized utility so a
  // backlog never reads as "these threads help nobody" and invites
  // another tenant to sweep the pool with an idle-grade bid.
  if (T.HasSample && T.LastSample.QueueDepth >= 1.0 && Have < T.Granted &&
      T.Granted > 0 && T.Estimator.hasHistory() && Fit.BaseRate > 0.0) {
    const double AvgUtil =
        T.LastSample.Throughput / (Fit.BaseRate * T.Granted);
    Utility = std::max(Utility, AvgUtil);
  }

  // SLO pressure for latency tenants: burning SLOs outbid everyone;
  // within-SLO tenants defend what they hold; comfortable ones cede —
  // but gracefully, two threads per epoch, so a quiet tenant drains to
  // its equilibrium instead of free-falling to its floor and paying a
  // multi-epoch recovery cliff when its load returns. The defend bid is
  // absolute (applied after the weight) and sits above any non-urgent
  // marginal bid, so only an SLO emergency elsewhere preempts held
  // threads.
  double Defend = -1.0;
  if (T.Spec.Goal == TenantGoal::ResponseTime && T.Spec.SloSeconds > 0.0 &&
      T.HasSample && T.LastSample.P95ResponseSeconds > 0.0) {
    const double Ratio =
        T.LastSample.P95ResponseSeconds / T.Spec.SloSeconds;
    if (Ratio > 1.0) {
      // A breached SLO is direct evidence of insufficient capacity and
      // overrides a (possibly demand-polluted) curve that claims more
      // threads would not help: bid at least the equal-share schedule,
      // boosted by the violation ratio. But grab with a target, not
      // greed: once the curve predicts capacity covering the offered
      // load with 50% drain headroom, further threads are overshoot
      // that would be ceded back two per epoch while other tenants
      // starve — bid those at the deep discount instead.
      const bool CoversDemand =
          T.Estimator.hasHistory() && Fit.BaseRate > 0.0 &&
          T.LastSample.OfferedRate > 0.0 &&
          T.Estimator.predictRate(std::max(1u, Have)) >=
              1.5 * T.LastSample.OfferedRate;
      if (CoversDemand) {
        Utility *= Opts.IdleBidDiscount;
      } else {
        Utility = std::max(Utility, 1.0 / static_cast<double>(Have + 1));
        Utility *= Opts.SloUrgencyBoost * Ratio;
      }
    } else if (Ratio < Opts.SloComfortFraction &&
               T.LastSample.QueueDepth < 1.0) {
      // bid(T, Have) prices thread number Have + 1, so defending
      // threads 1..Granted-2 means Have + 3 <= Granted. Ceding exactly
      // two per epoch also stays above HysteresisThreads = 1 — a
      // one-thread cede would be suppressed as drift and the tenant
      // would never drain.
      if (Have + 3 <= T.Granted)
        Defend = DefendBid;
      else
        Utility *= 0.25;
    } else if (Have < T.Granted) {
      Defend = DefendBid; // inside the SLO but not comfortable: hold
    }
  }

  Utility *= T.Spec.Weight;
  if (Defend > 0.0)
    Utility = std::max(Utility, Defend);

  // Containment rung 1: a tenant past the discount threshold pays for
  // its record — every bid, including the defend bid, is deflated, so
  // repeated non-compliance loses auctions it would otherwise win.
  if (Opts.Compliance.Enabled &&
      penaltyAtLeast(T.Monitor.penalty(), CompliancePenalty::BidDiscount))
    Utility *= Opts.Compliance.BidDiscount;

  // Tiny weighted floor: the water-fill always places the whole pool
  // (idle threads help nobody), and ties between all-idle tenants still
  // resolve toward weighted shares.
  const double Floor =
      1e-6 * T.Spec.Weight / static_cast<double>(Have + 1);
  return std::max(Utility, Floor);
}

std::vector<unsigned> Arbiter::waterFill() const {
  const unsigned Pool = grantableThreadsLocked();
  std::vector<unsigned> Alloc(Tenants.size(), 0);
  std::vector<unsigned> Cap(Tenants.size(), 0);
  unsigned Placed = 0;
  for (size_t I = 0; I != Tenants.size(); ++I) {
    const TenantState &T = Tenants[I];
    if (!seated(T)) {
      // Expired and evicted tenants hold nothing and bid for nothing.
      Cap[I] = 0;
      continue;
    }
    const TenantSpec &S = T.Spec;
    Cap[I] = S.MaxThreads == 0 ? Opts.TotalThreads
                               : std::min(S.MaxThreads, Opts.TotalThreads);
    // Containment rung 2: a clamped tenant is pinned to its floor — it
    // keeps making progress but cannot expand until its score decays.
    if (Opts.Compliance.Enabled &&
        penaltyAtLeast(T.Monitor.penalty(), CompliancePenalty::LeaseClamp))
      Cap[I] = std::min(Cap[I], std::max(1u, S.MinThreads));
    Alloc[I] = std::min(std::max(1u, S.MinThreads), Cap[I]);
    Placed += Alloc[I];
  }

  // Discretionary threads go one at a time to the highest bidder; ties
  // break toward the lowest tenant id for determinism.
  while (Placed < Pool) {
    size_t Best = Tenants.size();
    double BestBid = -1.0;
    for (size_t I = 0; I != Tenants.size(); ++I) {
      if (Alloc[I] >= Cap[I])
        continue;
      const double B = bid(Tenants[I], Alloc[I]);
      if (B > BestBid) {
        BestBid = B;
        Best = I;
      }
    }
    if (Best == Tenants.size())
      break; // everyone at their cap; leave the rest idle
    ++Alloc[Best];
    ++Placed;
  }
  return Alloc;
}

std::vector<LeaseChange>
Arbiter::apply(const std::vector<unsigned> &Target, double Now,
               const char *Reason) {
  assert(Target.size() == Tenants.size());
  std::vector<LeaseChange> Changes;

  for (size_t I = 0; I != Tenants.size(); ++I) {
    TenantState &T = Tenants[I];
    if (!seated(T)) {
      T.LastBid = 0.0;
      continue;
    }
    T.LastBid = bid(T, Target[I]);
    if (Opts.Trace)
      Opts.Trace->recordAt(Now, TraceKind::TenantUtility, T.Spec.Name,
                           T.LastBid, static_cast<double>(T.Granted));
  }

  // Revocations first so a host applying changes in order never holds
  // more threads than the platform owns.
  for (int Pass = 0; Pass != 2; ++Pass) {
    for (size_t I = 0; I != Tenants.size(); ++I) {
      TenantState &T = Tenants[I];
      const unsigned New = Target[I], Old = T.Granted;
      const bool Shrink = New < Old;
      if (New == Old || (Pass == 0) != Shrink)
        continue;
      if (Opts.Trace)
        Opts.Trace->recordAt(Now,
                             Shrink ? TraceKind::LeaseRevoke
                                    : TraceKind::LeaseGrant,
                             T.Spec.Name, static_cast<double>(New),
                             static_cast<double>(Old), Reason);
      DOPE_LOG_DEBUG("arbiter: %s lease %s %u -> %u (%s)",
                     T.Spec.Name.c_str(), Shrink ? "revoke" : "grant", Old,
                     New, Reason);
      Changes.push_back({T.Spec.Name, Now, Old, New, Reason});
      T.Granted = New;
      T.LastLeaseChange = Now;
    }
  }
  return Changes;
}

TenantId Arbiter::addTenant(TenantSpec Spec, double NowSeconds,
                            std::vector<LeaseChange> *Changes) {
  assert(Spec.Weight > 0.0 && "tenant weight must be positive");
  std::lock_guard<std::mutex> Lock(Mutex);
  TenantState T(FitCache);
  T.Id = NextId++;
  T.Spec = std::move(Spec);
  if (T.Spec.MinThreads == 0)
    T.Spec.MinThreads = 1;
  T.Monitor = ComplianceMonitor(Opts.Compliance);
  // The lease TTL clock starts at admission: a tenant that joins and
  // never reports is as dead as one that stops reporting.
  T.LastHeartbeat = NowSeconds;
  Tenants.push_back(std::move(T));

  // A join re-splits immediately: the newcomer cannot wait an epoch for
  // its first thread, and sitting tenants shrink to make room.
  std::vector<LeaseChange> Applied =
      apply(waterFill(), NowSeconds, "join");
  LastRebalance = NowSeconds;
  EverRebalanced = true;
  if (Changes)
    Changes->insert(Changes->end(), Applied.begin(), Applied.end());
  return Tenants.back().Id;
}

void Arbiter::removeTenant(TenantId Id, double NowSeconds,
                           std::vector<LeaseChange> *Changes) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = std::lower_bound(
      Tenants.begin(), Tenants.end(), Id,
      [](const TenantState &T, TenantId Id) { return T.Id < Id; });
  assert(It != Tenants.end() && It->Id == Id && "unknown tenant id");
  if (Opts.Trace && It->Granted > 0)
    Opts.Trace->recordAt(NowSeconds, TraceKind::LeaseRevoke, It->Spec.Name,
                         0.0, static_cast<double>(It->Granted), "leave");
  if (Changes)
    Changes->push_back({It->Spec.Name, NowSeconds, It->Granted, 0, "leave"});
  DOPE_LOG_DEBUG("arbiter: tenant %s leaves, returning %u threads",
                 It->Spec.Name.c_str(), It->Granted);
  Tenants.erase(It);
  // The freed threads are re-offered at the next epoch; a leave never
  // interrupts the survivors mid-epoch.
}

void Arbiter::flagViolation(TenantState &T, ComplianceViolation V,
                            double Now) {
  const double Score = T.Monitor.flag(V);
  const CompliancePenalty P = T.Monitor.penalty();
  if (Opts.Trace)
    Opts.Trace->recordAt(Now, TraceKind::ComplianceVerdict, T.Spec.Name,
                         Score, static_cast<double>(P), toString(V));
  DOPE_LOG_DEBUG("arbiter: tenant %s flagged %s (score %.2f, penalty %s)",
                 T.Spec.Name.c_str(), toString(V), Score, toString(P));
}

void Arbiter::reportSample(TenantId Id, const TenantSample &Sample) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = std::lower_bound(
      Tenants.begin(), Tenants.end(), Id,
      [](const TenantState &T, TenantId Id) { return T.Id < Id; });
  assert(It != Tenants.end() && It->Id == Id && "unknown tenant id");
  TenantState &T = *It;
  if (T.Evicted)
    return; // evicted tenants no longer participate in the protocol

  const bool Checks = Opts.Compliance.Enabled;
  const double PrevTime = T.HasSample ? T.LastSample.Time : -1.0;

  // A sample whose clock ran backwards is stale or forged: it renews
  // nothing and teaches nothing. Equal timestamps pass — hosts may
  // batch several reports onto one epoch tick. (First samples always
  // pass — admission set the heartbeat but there is no previous sample
  // time.)
  if (Checks && T.HasSample && Sample.Time < PrevTime) {
    flagViolation(T, ComplianceViolation::NonMonotoneClock, Sample.Time);
    return;
  }

  // Heartbeat: the report itself is the liveness proof. An expired
  // tenant that heartbeats again is revived — re-seated at the next
  // rebalance, which the revival forces past the epoch gate.
  T.LastHeartbeat = std::max(T.LastHeartbeat, Sample.Time);
  if (T.Expired) {
    T.Expired = false;
    ForceRebalance = true;
    ForceReason = "revive";
  }
  const bool Saturated = Sample.QueueDepth >= 1.0;
  if (Opts.Trace)
    Opts.Trace->recordAt(Sample.Time, TraceKind::Heartbeat, T.Spec.Name,
                         static_cast<double>(Sample.GrantedThreads),
                         Sample.Throughput,
                         Saturated ? "saturated" : std::string());

  // Compliance checks that compare the sample against the lease skip
  // windows spanning a lease change: the tenant legitimately held
  // different counts within that window, so its numbers are not
  // evidence of misbehavior.
  const bool LeaseStable = T.HasSample && T.LastLeaseChange <= PrevTime;
  bool FeedEstimator = Saturated;

  if (Checks && LeaseStable &&
      Sample.GrantedThreads >
          std::max(T.Granted, std::max(1u, T.Spec.MinThreads))) {
    // Running above the granted envelope: the throughput was earned
    // with stolen threads — do not let it teach the curve.
    flagViolation(T, ComplianceViolation::EnvelopeExceeded, Sample.Time);
    FeedEstimator = false;
  }

  if (Checks && LeaseStable && FeedEstimator &&
      T.Estimator.distinctExtents() >= Opts.Compliance.MinExtentsForBand) {
    const SpeedupCurveFit &Fit = T.Estimator.fit();
    if (Fit.BaseRate > 0.0) {
      const double Pred =
          T.Estimator.predictRate(std::max(1u, Sample.GrantedThreads));
      const double Band =
          Opts.Compliance.PlausibleRateFactor * Pred + 3.0 * Fit.Rmse;
      if (Sample.Throughput > Band) {
        flagViolation(T, ComplianceViolation::ImplausibleThroughput,
                      Sample.Time);
        FeedEstimator = false;
      }
    }
  }

  T.LastSample = Sample;
  T.HasSample = true;
  // Only saturated windows teach the estimator: an underloaded window's
  // throughput equals the offered load, which says capacity(k) >= rate,
  // not capacity(k) == rate — feeding it as an equality would teach the
  // curve that threads don't help.
  if (FeedEstimator)
    T.Estimator.observe(Sample.GrantedThreads, Sample.Throughput);
}

bool Arbiter::expireAndEvict(double Now, std::vector<LeaseChange> &Changes) {
  bool Force = false;
  for (TenantState &T : Tenants) {
    // A heartbeat claiming to come from the future would fake liveness
    // forever; clamp it to the arbiter's clock and hold it against the
    // tenant. One epoch of tolerance absorbs honest clock skew between
    // the reporting host and the rebalance driver.
    if (Opts.Compliance.Enabled && !T.Evicted &&
        T.LastHeartbeat > Now + Opts.EpochSeconds) {
      T.LastHeartbeat = Now;
      flagViolation(T, ComplianceViolation::FutureClock, Now);
    }

    // Liveness: expire a lease whose holder has not heartbeat within the
    // TTL. The lease is valid while Now < LastHeartbeat + TTL — at
    // exactly the TTL it is already dead (deterministic boundary).
    if (Opts.LeaseTtlSeconds > 0.0 && seated(T) &&
        Now >= T.LastHeartbeat + Opts.LeaseTtlSeconds) {
      T.Expired = true;
      Force = true;
      DOPE_LOG_DEBUG("arbiter: tenant %s lease expired (last heartbeat %.3f)",
                     T.Spec.Name.c_str(), T.LastHeartbeat);
      if (Opts.Trace)
        Opts.Trace->recordAt(Now, TraceKind::LeaseExpire, T.Spec.Name, 0.0,
                             static_cast<double>(T.Granted), "ttl");
      if (T.Granted > 0) {
        Changes.push_back({T.Spec.Name, Now, T.Granted, 0, "expire"});
        T.Granted = 0;
        T.LastLeaseChange = Now;
      }
    }

    // Containment rung 3: eviction latches once the score crosses the
    // terminal threshold — decay never walks a tenant back from it.
    if (Opts.Compliance.Enabled && !T.Evicted &&
        T.Monitor.penalty() == CompliancePenalty::Evict) {
      T.Evicted = true;
      Force = true;
      DOPE_LOG_DEBUG("arbiter: tenant %s evicted (score %.2f)",
                     T.Spec.Name.c_str(), T.Monitor.score());
      if (Opts.Trace) {
        Opts.Trace->recordAt(Now, TraceKind::ComplianceVerdict, T.Spec.Name,
                             T.Monitor.score(),
                             static_cast<double>(CompliancePenalty::Evict),
                             "evicted");
        if (T.Granted > 0)
          Opts.Trace->recordAt(Now, TraceKind::LeaseRevoke, T.Spec.Name, 0.0,
                               static_cast<double>(T.Granted), "evict");
      }
      if (T.Granted > 0) {
        Changes.push_back({T.Spec.Name, Now, T.Granted, 0, "evict"});
        T.Granted = 0;
        T.LastLeaseChange = Now;
      }
    }
  }
  return Force;
}

std::vector<LeaseChange> Arbiter::rebalance(double NowSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Tenants.empty())
    return {};

  // Expiry / eviction pre-pass runs on every call, even inside the
  // epoch: a dead tenant's threads return the moment its TTL lapses,
  // and the freed pool re-splits immediately below.
  std::vector<LeaseChange> Changes;
  bool Force = expireAndEvict(NowSeconds, Changes);
  if (ForceRebalance) {
    Force = true;
    ForceRebalance = false;
  }
  const char *Reason = Force ? ForceReason : "rebalance";
  ForceReason = "rebalance";

  if (!Force && EverRebalanced &&
      NowSeconds < LastRebalance + Opts.EpochSeconds)
    return Changes;

  // Epoch boundary: clean tenants' compliance scores decay toward
  // forgiveness.
  if (Opts.Compliance.Enabled)
    for (TenantState &T : Tenants)
      T.Monitor.epochTick();

  const std::vector<unsigned> Target = waterFill();

  unsigned MaxDelta = 0;
  bool Urgent = false;
  for (size_t I = 0; I != Tenants.size(); ++I) {
    const unsigned Old = Tenants[I].Granted, New = Target[I];
    MaxDelta = std::max(MaxDelta, Old > New ? Old - New : New - Old);
    if (New > Old && seated(Tenants[I]) && sloBurning(Tenants[I]))
      Urgent = true;
  }

  LastRebalance = NowSeconds;
  EverRebalanced = true;

  // Hysteresis: drifting by a thread or two is noise, not signal —
  // unless a latency tenant is past its SLO (even one thread moves now)
  // or an expiry/eviction/revival just changed who is seated.
  if (MaxDelta == 0 || (MaxDelta <= Opts.HysteresisThreads && !Urgent &&
                        !Force)) {
    if (Opts.Trace)
      for (TenantState &T : Tenants) {
        if (!seated(T)) {
          T.LastBid = 0.0;
          continue;
        }
        T.LastBid = bid(T, T.Granted);
        Opts.Trace->recordAt(NowSeconds, TraceKind::TenantUtility,
                             T.Spec.Name, T.LastBid,
                             static_cast<double>(T.Granted));
      }
    return Changes;
  }

  std::vector<LeaseChange> Applied =
      apply(Target, NowSeconds, Urgent ? "slo-urgent" : Reason);
  Changes.insert(Changes.end(), Applied.begin(), Applied.end());
  return Changes;
}

//===----------------------------------------------------------------------===//
// Warm restart: snapshot / restore / trace-journal reconstruction
//===----------------------------------------------------------------------===//

static const char *goalName(TenantGoal G) {
  return G == TenantGoal::ResponseTime ? "response-time" : "throughput";
}

static TenantGoal goalFromName(const std::string &Name) {
  return Name == "response-time" ? TenantGoal::ResponseTime
                                 : TenantGoal::Throughput;
}

static constexpr const char *SnapshotSchema = "dope-arbiter-snapshot-v1";

JsonValue Arbiter::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  JsonValue Root = JsonValue::makeObject();
  Root.set("schema", SnapshotSchema);
  Root.set("nextId", static_cast<double>(NextId));
  Root.set("lastRebalance", LastRebalance);
  Root.set("everRebalanced", EverRebalanced);

  JsonValue Ts = JsonValue::makeArray();
  for (const TenantState &T : Tenants) {
    JsonValue O = JsonValue::makeObject();
    O.set("id", static_cast<double>(T.Id));
    O.set("name", T.Spec.Name);
    O.set("goal", goalName(T.Spec.Goal));
    O.set("weight", T.Spec.Weight);
    O.set("minThreads", static_cast<double>(T.Spec.MinThreads));
    O.set("maxThreads", static_cast<double>(T.Spec.MaxThreads));
    O.set("sloSeconds", T.Spec.SloSeconds);
    O.set("granted", static_cast<double>(T.Granted));
    O.set("lastHeartbeat", T.LastHeartbeat);
    O.set("expired", T.Expired);
    O.set("evicted", T.Evicted);
    O.set("lastLeaseChange", T.LastLeaseChange);
    O.set("lastBid", T.LastBid);
    O.set("complianceScore", T.Monitor.score());
    O.set("violations", static_cast<double>(T.Monitor.violationCount()));
    if (T.HasSample) {
      JsonValue S = JsonValue::makeObject();
      S.set("t", T.LastSample.Time);
      S.set("k", static_cast<double>(T.LastSample.GrantedThreads));
      S.set("x", T.LastSample.Throughput);
      S.set("offered", T.LastSample.OfferedRate);
      S.set("p95", T.LastSample.P95ResponseSeconds);
      S.set("q", T.LastSample.QueueDepth);
      O.set("sample", std::move(S));
    }
    JsonValue Obs = JsonValue::makeArray();
    for (const auto &[Extent, Rate] : T.Estimator.observations()) {
      JsonValue Pair = JsonValue::makeArray();
      Pair.push(static_cast<double>(Extent));
      Pair.push(Rate);
      Obs.push(std::move(Pair));
    }
    O.set("obs", std::move(Obs));
    Ts.push(std::move(O));
  }
  Root.set("tenants", std::move(Ts));
  return Root;
}

bool Arbiter::restore(const JsonValue &Snapshot) {
  if (!Snapshot.isObject() || Snapshot.getString("schema") != SnapshotSchema)
    return false;
  const JsonValue *Ts = Snapshot.get("tenants");
  if (!Ts || !Ts->isArray())
    return false;

  // Locked from here: the restored estimators fit through FitCache.
  // Nothing below touches the live tenants until the snapshot parsed.
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<TenantState> Restored;
  Restored.reserve(Ts->size());
  for (size_t I = 0; I != Ts->size(); ++I) {
    const JsonValue &O = Ts->at(I);
    if (!O.isObject() || O.getString("name").empty())
      return false;
    TenantState T(FitCache);
    T.Id = static_cast<TenantId>(O.getNumber("id"));
    if (T.Id == 0)
      return false;
    T.Spec.Name = O.getString("name");
    T.Spec.Goal = goalFromName(O.getString("goal"));
    T.Spec.Weight = O.getNumber("weight", 1.0);
    T.Spec.MinThreads =
        std::max(1u, static_cast<unsigned>(O.getNumber("minThreads", 1)));
    T.Spec.MaxThreads = static_cast<unsigned>(O.getNumber("maxThreads"));
    T.Spec.SloSeconds = O.getNumber("sloSeconds");
    T.Granted = static_cast<unsigned>(O.getNumber("granted"));
    T.LastHeartbeat = O.getNumber("lastHeartbeat");
    T.Expired = O.getBool("expired");
    T.Evicted = O.getBool("evicted");
    T.LastLeaseChange = O.getNumber("lastLeaseChange", -1.0);
    T.LastBid = O.getNumber("lastBid");
    T.Monitor = ComplianceMonitor(Opts.Compliance);
    T.Monitor.restoreScore(
        O.getNumber("complianceScore"),
        static_cast<uint64_t>(O.getNumber("violations")));
    if (const JsonValue *S = O.get("sample"); S && S->isObject()) {
      T.LastSample.Time = S->getNumber("t");
      T.LastSample.GrantedThreads = static_cast<unsigned>(S->getNumber("k"));
      T.LastSample.Throughput = S->getNumber("x");
      T.LastSample.OfferedRate = S->getNumber("offered");
      T.LastSample.P95ResponseSeconds = S->getNumber("p95");
      T.LastSample.QueueDepth = S->getNumber("q");
      T.HasSample = true;
    }
    if (const JsonValue *Obs = O.get("obs"); Obs && Obs->isArray())
      for (size_t J = 0; J != Obs->size(); ++J) {
        const JsonValue &Pair = Obs->at(J);
        if (Pair.isArray() && Pair.size() == 2)
          T.Estimator.setObservation(
              static_cast<unsigned>(Pair.at(0).asDouble()),
              Pair.at(1).asDouble());
      }
    Restored.push_back(std::move(T));
  }

  std::sort(Restored.begin(), Restored.end(),
            [](const TenantState &L, const TenantState &R) {
              return L.Id < R.Id;
            });
  for (size_t I = 1; I < Restored.size(); ++I)
    if (Restored[I].Id == Restored[I - 1].Id)
      return false; // duplicate ids: corrupt snapshot

  Tenants = std::move(Restored);
  TenantId MaxId = 0;
  for (const TenantState &T : Tenants)
    MaxId = std::max(MaxId, T.Id);
  NextId = std::max(static_cast<TenantId>(Snapshot.getNumber("nextId", 1)),
                    MaxId + 1);
  LastRebalance = Snapshot.getNumber("lastRebalance");
  EverRebalanced = Snapshot.getBool("everRebalanced");
  ForceRebalance = false;
  ForceReason = "rebalance";
  DOPE_LOG_DEBUG("arbiter: restored %zu tenants from snapshot",
                 Tenants.size());
  return true;
}

size_t Arbiter::warmStart(const std::vector<TraceRecord> &Journal) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Find = [&](const std::string &Name) -> TenantState * {
    for (TenantState &T : Tenants)
      if (T.Spec.Name == Name)
        return &T;
    return nullptr;
  };

  size_t Applied = 0;
  for (const TraceRecord &R : Journal) {
    TenantState *T = nullptr;
    switch (R.Kind) {
    case TraceKind::Heartbeat:
      if ((T = Find(R.Name))) {
        T->LastHeartbeat = std::max(T->LastHeartbeat, R.Time);
        // Saturated windows carry (threads held, achieved rate) — the
        // same stream the live estimator learned from.
        if (R.Detail == "saturated")
          T->Estimator.observe(static_cast<unsigned>(R.A), R.B);
        ++Applied;
      }
      break;
    case TraceKind::LeaseGrant:
    case TraceKind::LeaseRevoke:
    case TraceKind::LeaseExpire:
      // Lease records carry (new threads, old threads): replaying them
      // re-aligns Granted with what the tenant actually holds, so the
      // first post-restart rebalance diffs against reality.
      if ((T = Find(R.Name))) {
        T->Granted = static_cast<unsigned>(R.A);
        T->LastLeaseChange = std::max(T->LastLeaseChange, R.Time);
        ++Applied;
      }
      break;
    default:
      break;
    }
  }
  DOPE_LOG_DEBUG("arbiter: warm start applied %zu journal records", Applied);
  return Applied;
}
