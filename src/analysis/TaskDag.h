//===- analysis/TaskDag.h - Spawn DAG reconstruction -----------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline reconstruction of the task-instance spawn DAG from a decision
/// trace. TaskBegin records carry their spawner's identity (B = spawner
/// instance id, Detail = spawner task name; see support/Trace.h), so the
/// DAG — who spawned whom, when each instance ran, how long it took — is
/// recoverable from the JSONL trace alone, with no access to the run
/// that produced it. This is the substrate of the causal what-if
/// profiler: CriticalPath walks it for work/span/wait attribution and
/// WhatIf projects hypothetical DoP changes over it.
///
/// Inputs are deliberately forgiving: traces are read through the
/// lenient JSONL reader (a crash mid-write leaves a torn final line),
/// and construction works on the canonical record order, so a
/// multi-threaded run's merged trace and a single-threaded run's trace
/// yield the same DAG.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_ANALYSIS_TASKDAG_H
#define DOPE_ANALYSIS_TASKDAG_H

#include "support/Trace.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dope {

/// One task instance recovered from a TaskBegin (and, when the run ended
/// cleanly, its matching TaskEnd).
struct TaskInstance {
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Task name (TaskBegin Name).
  std::string Task;
  /// Instance id (TaskBegin A): replica index for native regions, the
  /// item/transaction id for simulators.
  uint64_t Id = 0;
  double BeginTime = 0.0;
  /// Negative while no TaskEnd matched (instance still open when the
  /// trace ended — e.g. a torn tail).
  double EndTime = -1.0;
  /// Busy seconds reported by TaskEnd (B); 0 while open.
  double Elapsed = 0.0;
  /// Index of the spawning instance in TaskDag::instances(); npos for
  /// roots (empty Detail) and for spawners the trace never recorded.
  size_t Parent = npos;
  /// Indices of instances this one spawned.
  std::vector<size_t> Children;

  bool completed() const { return EndTime >= BeginTime; }
};

/// The reconstructed spawn DAG (a forest: every instance has at most one
/// spawner).
class TaskDag {
public:
  /// Builds the DAG from trace records. The records are canonicalized
  /// internally (sorted into the thread-independent total order), so any
  /// permutation of the same multiset — a different thread count, a
  /// merge, a re-serialization — builds the same DAG. Non-task records
  /// are ignored.
  static TaskDag build(std::vector<TraceRecord> Records);

  /// Reads a JSONL trace leniently (torn/corrupt lines are skipped, not
  /// fatal) and builds the DAG. \p Stats, when non-null, reports how
  /// many lines were parsed and skipped.
  static TaskDag fromJsonl(std::istream &IS, TraceReadStats *Stats = nullptr);

  /// All instances, in canonical trace order (parents precede children).
  const std::vector<TaskInstance> &instances() const { return Instances; }

  /// Indices of instances with no recorded spawner.
  const std::vector<size_t> &roots() const { return Roots; }

  /// Distinct task names in first-appearance order — the stage order for
  /// pipeline traces, since stage 0 begins first.
  const std::vector<std::string> &taskNames() const { return Names; }

  size_t size() const { return Instances.size(); }
  bool empty() const { return Instances.empty(); }

  /// Instances with a matched TaskEnd.
  size_t completedCount() const { return Completed; }
  /// Instances still open when the trace ended.
  size_t openCount() const { return Instances.size() - Completed; }

private:
  std::vector<TaskInstance> Instances;
  std::vector<size_t> Roots;
  std::vector<std::string> Names;
  size_t Completed = 0;
};

} // namespace dope

#endif // DOPE_ANALYSIS_TASKDAG_H
