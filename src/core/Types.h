//===- core/Types.h - Fundamental DoPE types ------------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fundamental enumerations of the DoPE API, mirroring Figure 3 of the
/// paper: task status (EXECUTING | SUSPENDED | FINISHED), task type
/// (SEQ | PAR), and the kinds of parallelism a configuration can select
/// (sequential, DOALL, pipeline).
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_TYPES_H
#define DOPE_CORE_TYPES_H

#include <string>

namespace dope {

/// Status returned by task functors and by Task::begin/end/wait
/// (paper: TaskStatus = EXECUTING | SUSPENDED | FINISHED). FAILED is this
/// reproduction's extension of the paper's enum: the executive converts a
/// throwing functor into a recorded failure that propagates out of
/// Task::wait / Dope::wait instead of terminating the process.
enum class TaskStatus {
  /// The loop continues; the functor will be invoked again.
  Executing,
  /// DoPE intends to reconfigure; the task should reach a globally
  /// consistent state and stop.
  Suspended,
  /// The loop exit branch was taken; the task is done.
  Finished,
  /// The task failed permanently (functor threw and exhausted its retry
  /// policy, or reported failure explicitly); the run winds down and the
  /// cause is available from Dope::failure().
  Failed,
};

/// Task type (paper: TaskType = SEQ | PAR). A sequential task's functor is
/// executed by exactly one thread; a parallel task's functor may be
/// invoked concurrently by several threads.
enum class TaskKind {
  Sequential,
  Parallel,
};

/// The type of parallelism a loop parallelization exploits. Used in
/// configuration descriptions, e.g. <(24, DOALL), (1, SEQ)> from Sec. 2.
enum class ParKind {
  Seq,
  DoAll,
  Pipe,
};

/// Returns a short printable name ("EXECUTING", "SEQ", "PIPE", ...).
std::string toString(TaskStatus Status);
std::string toString(TaskKind Kind);
std::string toString(ParKind Kind);

/// A degree of parallelism: type and extent, e.g. (8, PIPE).
struct Dop {
  unsigned Extent = 1;
  ParKind Kind = ParKind::Seq;

  bool operator==(const Dop &Other) const = default;
};

/// Renders "(8, PIPE)".
std::string toString(const Dop &D);

} // namespace dope

#endif // DOPE_CORE_TYPES_H
