//===- support/Trace.h - Structured decision tracing -----------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate: a low-overhead structured tracer that
/// records the executive's *decision dynamics* — feature samples,
/// reconfiguration decisions, queue depths, task suspension points, and
/// fault events — rather than just end-of-run aggregates.
///
/// Writers append fixed-capacity per-thread ring buffers (one uncontended
/// mutex per thread; the oldest records are overwritten under pressure
/// and counted as dropped), so tracing a hot Task::begin/end path costs
/// an allocation-free append in the common case. A drain merges all
/// buffers into one time-sorted record vector.
///
/// Exporters serialize drained records as Chrome trace_event JSON (load
/// into chrome://tracing / Perfetto) or as compact JSONL — the decision
/// log format that `tools/dope_trace` dumps, diffs, and summarizes and
/// that the golden-trace conformance suite asserts on.
///
/// Clock domain: every record is stamped by the tracer's clock, which
/// defaults to native monotonic seconds and is retargeted to virtual
/// time by the simulators; the Logging sink (support/Logging.cpp) stamps
/// log lines with the same clock while a tracer is active, so logs and
/// trace records interleave consistently.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SUPPORT_TRACE_H
#define DOPE_SUPPORT_TRACE_H

#include "support/Compiler.h"
#include "support/ThreadAnnotations.h"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dope {

/// What one trace record describes.
enum class TraceKind : uint8_t {
  /// A fresh platform-feature sample through FeatureRegistry::getValue
  /// (Name = feature, A = value).
  FeatureSample,
  /// A mechanism reading a feature at decision time through
  /// MechanismContext::feature (Name = feature, A = value).
  FeatureRead,
  /// One reconfigureParallelism consult (Name = mechanism, Detail = the
  /// chosen configuration rendered by toString, A = total threads of the
  /// choice, B = 1 when the decision changed the running configuration).
  Decision,
  /// A queue-occupancy / load sample (Name = task or queue, A = depth).
  QueueDepth,
  /// Task::begin of one instance (Name = task, A = instance id — the
  /// replica index for native regions, the item/transaction id for
  /// simulators). Parentage, when known, rides in B = spawner instance
  /// id and Detail = spawner task name; an empty Detail marks a root
  /// instance. The (Detail, B) pair keys the spawning TaskBegin, which
  /// is what analysis/TaskDag uses to reconstruct the spawn DAG.
  TaskBegin,
  /// Task::end of one instance (Name = task, A = instance id matching
  /// the TaskBegin, B = instance seconds).
  TaskEnd,
  /// Task::wait — entering the task's inner region (Name = task,
  /// A = replica index).
  TaskWait,
  /// A configuration change applied by the executive or simulator
  /// (Name = source, Detail = new configuration).
  Reconfig,
  /// A failure-domain event: retry, permanent failure, watchdog incident,
  /// injected fault (Name = event class, Detail = description).
  Fault,
  /// A log line routed from support/Logging (Name = level,
  /// Detail = message).
  Log,
  /// A generic counter sample (Name = series, A = value).
  Counter,
  /// The platform arbiter granted (or re-granted) a tenant's lease
  /// (Name = tenant, A = threads granted, B = previous threads,
  /// Detail = reason: "join", "rebalance", "equal-share", ...).
  LeaseGrant,
  /// The platform arbiter revoked part or all of a tenant's lease
  /// (Name = tenant, A = threads after revocation, B = previous
  /// threads, Detail = reason).
  LeaseRevoke,
  /// A tenant's marginal-utility sample at arbitration time
  /// (Name = tenant, A = marginal utility of the next thread,
  /// B = threads held when sampled).
  TenantUtility,
  /// A lease expired because its holder stopped heartbeating within the
  /// TTL — the arbiter reclaims the threads; on the executive side, an
  /// unrenewed envelope shrinking through quiesce (Name = tenant or
  /// "envelope", A = threads after expiry, B = previous threads,
  /// Detail = reason: "ttl").
  LeaseExpire,
  /// A tenant liveness proof attached to a sample report (Name = tenant,
  /// A = threads the tenant reports holding, B = measured throughput,
  /// Detail = "saturated" when the window had backlog — these windows
  /// double as the utility-curve reconstruction stream for warm
  /// restarts).
  Heartbeat,
  /// A compliance verdict against a tenant (Name = tenant,
  /// A = accumulated misbehavior score, B = penalty rung
  /// (0 none, 1 bid discount, 2 lease clamp, 3 evicted),
  /// Detail = the violation class that triggered the verdict).
  ComplianceVerdict,
  /// A successful steal in the work-stealing task runtime (Name = the
  /// tree task or engine, A = thief worker index, B = victim worker
  /// index). Failed attempts are not traced — they aggregate into the
  /// StealRate feature instead.
  Steal,
};

/// Canonical lower-case name of a record kind ("decision", "fault", ...).
const char *toString(TraceKind Kind);

/// Inverse of toString; std::nullopt for unknown names.
std::optional<TraceKind> traceKindFromString(std::string_view Name);

/// One trace record. Fixed shape: two scalar payloads plus two strings
/// (Name interned by the caller's context; Detail usually empty outside
/// decisions and faults).
struct TraceRecord {
  double Time = 0.0;
  TraceKind Kind = TraceKind::Counter;
  /// Stable per-tracer writer index (0 = first thread that recorded).
  uint32_t Tid = 0;
  std::string Name;
  double A = 0.0;
  double B = 0.0;
  std::string Detail;
};

/// The tracer: a set of per-thread ring buffers behind one handle.
class Tracer {
public:
  /// \p CapacityPerThread bounds each thread's ring; the oldest records
  /// are overwritten (and counted) beyond it.
  explicit Tracer(size_t CapacityPerThread = 65536);
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Retargets the timestamp domain (e.g. to a simulator's virtual
  /// clock). An empty function restores native monotonic seconds.
  void setClock(std::function<double()> Clock);

  /// Current time under the tracer's clock.
  double now() const;

  /// Appends a record stamped with now().
  DOPE_HOT void record(TraceKind Kind, std::string_view Name, double A = 0.0,
                       double B = 0.0, std::string Detail = std::string());

  /// Appends a record with an explicit timestamp (simulators pass
  /// virtual time directly).
  DOPE_HOT void recordAt(double Time, TraceKind Kind, std::string_view Name,
                         double A = 0.0, double B = 0.0,
                         std::string Detail = std::string());

  /// Merges and clears all per-thread buffers; records are sorted by
  /// time (stable, so same-timestamp records keep per-thread order).
  std::vector<TraceRecord> drain();

  /// Records overwritten because a ring was full.
  uint64_t droppedRecords() const;

  /// Total records ever appended (including later-overwritten ones).
  uint64_t recordedTotal() const;

  /// Process-wide active tracer, used by the Logging sink to mirror log
  /// lines into the trace with a consistent clock. Set by whoever owns
  /// the tracer (executive, simulator, harness); cleared on destruction.
  static Tracer *active();
  static void setActive(Tracer *T);

private:
  struct ThreadBuffer;

  ThreadBuffer &buffer();
  void append(ThreadBuffer &Buf, TraceRecord R);

  const size_t Capacity;
  const uint64_t Id; // process-unique, guards thread-local lookups
  mutable std::mutex ClockMutex;
  std::function<double()> Clock DOPE_GUARDED_BY(ClockMutex);

  std::mutex RegistryMutex;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers
      DOPE_GUARDED_BY(RegistryMutex);
};

/// Sorts \p Records into a canonical total order independent of which
/// thread recorded them: by (Time, Kind, Name, A, B, Detail), ignoring
/// Tid. Two drains of the same logical run whose records landed in
/// different per-thread rings canonicalize to equal sequences iff they
/// carry the same multiset of records. The sort is plain (not stable):
/// ties beyond Detail are exact duplicates up to Tid, which the order
/// ignores by design.
void canonicalizeTrace(std::vector<TraceRecord> &Records);

//===----------------------------------------------------------------------===//
// Exporters / import
//===----------------------------------------------------------------------===//

/// Writes records as a Chrome trace_event JSON document: begin/end pairs
/// for task instances, instant events for decisions/reconfigs/faults/
/// logs, counter tracks for features and queue depths.
void writeChromeTrace(const std::vector<TraceRecord> &Records,
                      std::ostream &OS);

/// Writes the compact JSONL form: one record object per line.
void writeTraceJsonl(const std::vector<TraceRecord> &Records,
                     std::ostream &OS);

/// Reads the JSONL form back. Unknown kinds and malformed lines abort
/// the read with an error. Returns std::nullopt on failure.
std::optional<std::vector<TraceRecord>>
readTraceJsonl(std::istream &IS, std::string *Error = nullptr);

/// What a lenient JSONL read skipped. A crash mid-write leaves a torn
/// final record (and a foreign tool may leave corrupt lines anywhere);
/// recovery readers want the surviving records plus an honest count of
/// what was dropped, not an abort.
struct TraceReadStats {
  /// Records successfully parsed.
  uint64_t Parsed = 0;
  /// Lines skipped (malformed JSON, non-objects, unknown kinds).
  uint64_t Skipped = 0;
  /// 1-based line number and message of the first skipped line.
  uint64_t FirstSkippedLine = 0;
  std::string FirstError;
};

/// Reads the JSONL form, skipping malformed or unknown-kind lines
/// instead of aborting; \p Stats (when non-null) reports how many lines
/// were parsed and skipped. Blank lines are neither parsed nor skipped.
std::vector<TraceRecord> readTraceJsonlLenient(std::istream &IS,
                                               TraceReadStats *Stats = nullptr);

/// Writes \p Records to \p Path, choosing the format by extension:
/// ".json" gets Chrome trace_event JSON, anything else JSONL. Returns
/// false (with \p Error filled) when the file cannot be written.
bool writeTraceFile(const std::vector<TraceRecord> &Records,
                    const std::string &Path, std::string *Error = nullptr);

} // namespace dope

#endif // DOPE_SUPPORT_TRACE_H
