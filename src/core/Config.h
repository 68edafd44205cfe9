//===- core/Config.h - Parallelism configurations -------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parallelism *configuration* assigns a concrete degree of parallelism
/// to the (under-specified) parallelism *description*: for every task, how
/// many threads execute it, and which inner ParDescriptor alternative (if
/// any) is active for its nested loop. Mechanisms produce configurations;
/// the executive realizes them.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_CONFIG_H
#define DOPE_CORE_CONFIG_H

#include "core/Task.h"
#include "core/Types.h"

#include <string>
#include <vector>

namespace dope {

/// Configuration of a single task within its region.
struct TaskConfig {
  /// Number of threads concurrently invoking this task's functor. Must be
  /// 1 for sequential tasks; >= 1 for parallel tasks.
  unsigned Extent = 1;

  /// Index of the active inner ParDescriptor alternative, or -1 to run the
  /// task without exploiting inner parallelism. (A task with no inner
  /// descriptor always uses -1.)
  int AltIndex = -1;

  /// Per-task configurations of the chosen inner alternative's tasks
  /// (empty when AltIndex is -1). Order matches
  /// descriptor->alternative(AltIndex)->tasks().
  std::vector<TaskConfig> Inner;

  bool operator==(const TaskConfig &Other) const = default;
};

/// Configuration of a parallel region: one TaskConfig per task, in
/// descriptor order.
struct RegionConfig {
  std::vector<TaskConfig> Tasks;

  bool operator==(const RegionConfig &Other) const = default;
};

/// Returns the total number of hardware threads the configuration of
/// \p Config occupies when executing \p Region.
///
/// Accounting: every replica of a task occupies one thread. When a task
/// instance executes an inner region via Task::wait, the parent thread
/// runs the inner *master* task itself, so an inner region with total
/// extent M costs M - 1 additional threads per parent replica.
unsigned totalThreads(const ParDescriptor &Region, const RegionConfig &Config);

/// Validates \p Config against \p Region: matching arity, extents >= 1,
/// sequential tasks at extent 1, alternative indices in range, recursive
/// inner validity. Returns true when well formed; on failure, fills
/// \p ErrorMessage when non-null.
bool validateConfig(const ParDescriptor &Region, const RegionConfig &Config,
                    std::string *ErrorMessage = nullptr);

/// Builds the canonical default configuration: every task at extent 1,
/// first alternative active at every nesting level.
RegionConfig defaultConfig(const ParDescriptor &Region);

/// Renders a configuration like "<(3, DOALL), (8, PIPE)>" for a two-level
/// nest or "(<1, 6, 6, 6, 6, 1>, PIPE)" for a single pipeline, matching
/// the notations used in the paper's figures.
std::string toString(const ParDescriptor &Region, const RegionConfig &Config);

} // namespace dope

#endif // DOPE_CORE_CONFIG_H
