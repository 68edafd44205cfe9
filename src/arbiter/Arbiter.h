//===- arbiter/Arbiter.h - Platform parallelism arbiter --------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The platform-level degree-of-parallelism arbiter. Where one DoPE
/// executive orchestrates parallelism *within* a region, the arbiter
/// orchestrates thread and power budget *across* regions: N tenants each
/// hold a revocable lease, and on a fixed epoch the arbiter re-divides
/// the platform by weighted max-min water-filling over marginal-utility
/// bids learned from each tenant's observed throughput-vs-threads
/// history (UtilityEstimator). Tenants with no history bid equal-share.
///
/// Design properties:
///  - Deterministic: same tenant set + same samples + same epoch times
///    produce the same lease sequence (ties break by tenant id; no
///    wall-clock or RNG anywhere).
///  - Hysteresis: a rebalance whose largest per-tenant delta is within
///    HysteresisThreads is suppressed entirely unless some
///    ResponseTime tenant is violating its SLO — small drifts never
///    thrash leases.
///  - Revoke-before-grant: returned LeaseChanges list shrinking tenants
///    first so a caller applying them in order never overcommits.
///  - Power budget: an optional linear power model caps the grantable
///    thread pool below the physical thread count.
///
/// The arbiter is passive — it owns no thread. Hosts call reportSample
/// as tenant telemetry arrives and rebalance(Now) on their epoch tick;
/// the simulator drives it from virtual time, a native host from a
/// monotonic clock.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_ARBITER_ARBITER_H
#define DOPE_ARBITER_ARBITER_H

#include "arbiter/ComplianceMonitor.h"
#include "arbiter/Lease.h"
#include "arbiter/Tenant.h"
#include "arbiter/UtilityEstimator.h"
#include "support/Json.h"
#include "support/ThreadAnnotations.h"
#include "support/Trace.h"

#include <cstdint>
#include <mutex>
#include <vector>

namespace dope {

struct ArbiterOptions {
  /// Physical hardware threads the platform can hand out.
  unsigned TotalThreads = 24;

  /// Platform power cap in watts; <= 0 disables the power model.
  double PowerBudgetWatts = 0.0;

  /// Linear active-power model: watts consumed per granted thread.
  double WattsPerThread = 0.0;

  /// Static platform power drawn regardless of grants.
  double IdlePowerWatts = 0.0;

  /// Seconds between rebalances; rebalance() calls inside an epoch are
  /// no-ops (tenant join/leave forces an immediate re-split).
  double EpochSeconds = 2.0;

  /// Suppress a rebalance whose largest per-tenant delta is at most
  /// this many threads (unless an SLO is burning). 0 disables
  /// hysteresis.
  unsigned HysteresisThreads = 1;

  /// Bid multiplier applied to a ResponseTime tenant whose p95 exceeds
  /// its SLO, scaled further by the violation ratio.
  double SloUrgencyBoost = 8.0;

  /// A ResponseTime tenant with p95 below this fraction of its SLO and
  /// a drained queue is "comfortable" and bids at a discount.
  double SloComfortFraction = 0.5;

  /// Discount on the marginal bid of a tenant already serving its
  /// offered load — spare threads flow to tenants that can use them.
  double IdleBidDiscount = 0.05;

  /// Lease time-to-live in seconds; 0 disables expiry. When set, a
  /// tenant whose last heartbeat (sample report) is at least this old at
  /// a rebalance call has its lease expired deterministically: the
  /// threads return to the pool (traced as LeaseExpire, change reason
  /// "expire") and the pool is re-split immediately. A fresh heartbeat
  /// revives the tenant at the next rebalance. The TTL clock starts at
  /// admission, so a tenant that joins and never reports still expires.
  double LeaseTtlSeconds = 0.0;

  /// Misbehavior detection and escalation (see ComplianceMonitor).
  ComplianceOptions Compliance;

  /// Optional sink for LeaseGrant / LeaseRevoke / LeaseExpire /
  /// Heartbeat / ComplianceVerdict / TenantUtility records.
  Tracer *Trace = nullptr;
};

/// Stable tenant handle (not reused after removeTenant).
using TenantId = uint32_t;

class Arbiter {
public:
  explicit Arbiter(ArbiterOptions Opts);

  /// Admits a tenant and immediately re-splits the platform (every
  /// sitting tenant may shrink to make room; the join bypasses the
  /// epoch gate and hysteresis). Returned changes include the
  /// newcomer's initial grant.
  TenantId addTenant(TenantSpec Spec, double NowSeconds,
                     std::vector<LeaseChange> *Changes = nullptr);

  /// Evicts a tenant; its lease returns to the pool and is re-offered
  /// at the next rebalance (no immediate re-split: joining tenants need
  /// threads now, leaving tenants just create slack). The final
  /// revocation to zero is appended to \p Changes when provided.
  void removeTenant(TenantId Id, double NowSeconds,
                    std::vector<LeaseChange> *Changes = nullptr);

  /// Feeds one epoch of telemetry; throughput observations accumulate
  /// into the tenant's utility estimator.
  void reportSample(TenantId Id, const TenantSample &Sample);

  /// Re-divides the platform if an epoch has elapsed since the last
  /// applied rebalance. Returns the applied lease changes, revocations
  /// first; empty when inside the epoch, when hysteresis suppressed the
  /// move, or when the allocation is already optimal.
  std::vector<LeaseChange> rebalance(double NowSeconds);

  Lease leaseOf(TenantId Id) const;
  const TenantSpec &specOf(TenantId Id) const;
  size_t tenantCount() const;

  /// Threads the power budget allows the arbiter to hand out
  /// (min(TotalThreads, power-capped pool), never below the sum of
  /// tenant floors once tenants are seated).
  unsigned grantableThreads() const;

  /// The bid the named tenant made for one more thread at the last
  /// rebalance (diagnostic; 0 before any rebalance).
  double lastBidOf(TenantId Id) const;

  /// Liveness / containment diagnostics (tests and hosts).
  bool isExpired(TenantId Id) const;
  bool isEvicted(TenantId Id) const;
  double lastHeartbeatOf(TenantId Id) const;
  CompliancePenalty penaltyOf(TenantId Id) const;
  double complianceScoreOf(TenantId Id) const;

  /// Serializes the full arbiter state — tenant specs, grants, heartbeat
  /// and compliance ledgers, and every smoothed utility observation — as
  /// a JSON object (schema "dope-arbiter-snapshot-v1"). A restarted
  /// arbiter restored from a snapshot makes the same decisions the dead
  /// one would have.
  JsonValue snapshot() const;

  /// Rebuilds state from snapshot(); replaces all current tenants.
  /// Returns false (leaving the arbiter untouched) on schema mismatch or
  /// a malformed document.
  bool restore(const JsonValue &Snapshot);

  /// Cold-start alternative to restore(): replays a recorded trace
  /// journal into the current tenant set (matched by tenant name).
  /// Saturated Heartbeat records re-teach each tenant's utility curve;
  /// lease records re-align Granted with what tenants actually hold, so
  /// the first post-restart rebalance starts from the real allocation
  /// instead of an equal split. Records naming no seated tenant (e.g. a
  /// Dope executive's "envelope" lease events) are skipped. Returns the
  /// number of records applied.
  size_t warmStart(const std::vector<TraceRecord> &Journal);

private:
  struct TenantState {
    explicit TenantState(SpeedupFitCache &Fits) : Estimator(Fits) {}

    TenantId Id = 0;
    TenantSpec Spec;
    UtilityEstimator Estimator;
    ComplianceMonitor Monitor;
    unsigned Granted = 0;
    TenantSample LastSample;
    bool HasSample = false;
    double LastBid = 0.0;
    /// Last proof of liveness (sample report time; admission time until
    /// the first report).
    double LastHeartbeat = 0.0;
    /// Lease expired by TTL; excluded from the water-fill until a fresh
    /// heartbeat revives it.
    bool Expired = false;
    /// Evicted for repeated non-compliance; terminal.
    bool Evicted = false;
    /// When this tenant's grant last changed — compliance checks skip
    /// sample windows spanning a lease change (the tenant legitimately
    /// held different counts within one window).
    double LastLeaseChange = -1.0;
  };

  /// Marginal bid of tenant \p T for thread number \p Have + 1.
  double bid(const TenantState &T, unsigned Have) const DOPE_REQUIRES(Mutex);

  /// True when \p T is a ResponseTime tenant currently over its SLO.
  bool sloBurning(const TenantState &T) const DOPE_REQUIRES(Mutex);

  /// Weighted max-min water-filling over all tenants; returns the
  /// target allocation aligned with Tenants order.
  std::vector<unsigned> waterFill() const DOPE_REQUIRES(Mutex);

  /// Lock-held body of grantableThreads(); waterFill calls it while
  /// already inside the arbiter mutex.
  unsigned grantableThreadsLocked() const DOPE_REQUIRES(Mutex);

  /// Applies \p Target, emitting trace records and LeaseChanges.
  std::vector<LeaseChange> apply(const std::vector<unsigned> &Target,
                                 double Now, const char *Reason)
      DOPE_REQUIRES(Mutex);

  /// True when the tenant participates in the water-fill (not expired,
  /// not evicted).
  static bool seated(const TenantState &T) {
    return !T.Expired && !T.Evicted;
  }

  /// Flags a violation on \p T and traces the verdict.
  void flagViolation(TenantState &T, ComplianceViolation V, double Now)
      DOPE_REQUIRES(Mutex);

  /// TTL-expires dead leases and latches evictions; appends the zeroing
  /// changes to \p Changes and returns true when the pool must re-split
  /// immediately (bypassing the epoch gate and hysteresis).
  bool expireAndEvict(double Now, std::vector<LeaseChange> &Changes)
      DOPE_REQUIRES(Mutex);

  const TenantState &stateOf(TenantId Id) const DOPE_REQUIRES(Mutex);
  TenantState &stateOfMut(TenantId Id) DOPE_REQUIRES(Mutex);

  ArbiterOptions Opts;
  // Hosts drive the arbiter from several threads (each tenant's epoch
  // tick may live on its own thread); one mutex serializes the whole
  // lease state.
  mutable std::mutex Mutex;
  /// Every tenant's estimator fits through this one cache: tenants
  /// running the same code hold identical tables, and each distinct
  /// table is fitted once. Lives and dies with the arbiter; a snapshot
  /// does not carry it.
  SpeedupFitCache FitCache DOPE_GUARDED_BY(Mutex);
  // Sorted by Id (append-only ids).
  std::vector<TenantState> Tenants DOPE_GUARDED_BY(Mutex);
  TenantId NextId DOPE_GUARDED_BY(Mutex) = 1;
  double LastRebalance DOPE_GUARDED_BY(Mutex) = 0.0;
  bool EverRebalanced DOPE_GUARDED_BY(Mutex) = false;
  /// The next rebalance() call must re-split regardless of the epoch
  /// gate (set by expiry, eviction, and revival).
  bool ForceRebalance DOPE_GUARDED_BY(Mutex) = false;
  /// Reason label for a forced re-split ("revive", "rebalance", ...).
  const char *ForceReason DOPE_GUARDED_BY(Mutex) = "rebalance";
};

} // namespace dope

#endif // DOPE_ARBITER_ARBITER_H
