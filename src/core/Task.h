//===- core/Task.h - Tasks and parallelism descriptors --------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The application-developer face of DoPE (Sec. 3 of the paper):
///
///   Task           = {control, function, load, desc, init, fini}
///   TaskDescriptor = {type: SEQ | PAR, pd: ParDescriptor[]}
///   ParDescriptor  = {tasks: Task[]}
///
/// A Task bundles a functor (the task's functionality), a load callback
/// (current workload on the task), optional init/fini callbacks used to
/// reach a globally consistent state around reconfigurations, and a
/// descriptor that describes the task's parallelism structure. A
/// TaskDescriptor may carry *several* ParDescriptor alternatives, exposing
/// a choice (e.g. pipelined vs. fused) that the run-time resolves.
///
/// All tasks and descriptors are owned by a TaskGraph arena; the
/// application wires them with raw pointers exactly as in the paper's
/// examples, and the arena guarantees their lifetime spans the run.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_TASK_H
#define DOPE_CORE_TASK_H

#include "core/Failure.h"
#include "core/Types.h"

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dope {

class Task;
class TaskRuntime;

/// The task's functionality: one loop iteration's worth of work
/// (paper Fig. 4(b)). Returns the task status after the instance.
using TaskFn = std::function<TaskStatus(TaskRuntime &)>;

/// Returns the current load on the task (paper: LoadCB, typically an
/// input-queue occupancy).
using LoadFn = std::function<double()>;

/// Invoked exactly once before (InitCB) / after (FiniCB) the task executes
/// within a parallel region epoch; used to restore global consistency
/// around reconfiguration (paper Sec. 3.1).
using HookFn = std::function<void()>;

/// A parallelism descriptor: an array of one or more tasks that execute in
/// parallel and potentially interact. The first task is the *master* task
/// whose status decides the fate of the region (paper Sec. 3.2, step 4).
class ParDescriptor {
public:
  explicit ParDescriptor(std::vector<Task *> Tasks)
      : Tasks(std::move(Tasks)) {
    assert(!this->Tasks.empty() && "a parallel region needs tasks");
  }

  const std::vector<Task *> &tasks() const { return Tasks; }
  Task *masterTask() const { return Tasks.front(); }
  size_t size() const { return Tasks.size(); }

  /// The kind of parallelism this region expresses: a single PAR task is a
  /// DOALL loop; multiple interacting tasks form a pipeline; a single SEQ
  /// task is sequential execution.
  ParKind parKind() const;

private:
  std::vector<Task *> Tasks;
};

/// Describes whether a task is sequential or parallel and which inner
/// parallelism alternatives it offers (possibly none).
class TaskDescriptor {
public:
  TaskDescriptor(TaskKind Kind, std::vector<ParDescriptor *> Alternatives)
      : Kind(Kind), Alternatives(std::move(Alternatives)) {}

  TaskKind kind() const { return Kind; }
  bool hasInner() const { return !Alternatives.empty(); }
  size_t alternativeCount() const { return Alternatives.size(); }
  ParDescriptor *alternative(size_t Index) const {
    assert(Index < Alternatives.size() && "alternative index out of range");
    return Alternatives[Index];
  }
  const std::vector<ParDescriptor *> &alternatives() const {
    return Alternatives;
  }

  /// Retry policy applied by the executive when a replica of a task using
  /// this descriptor throws (default: no retry — fail on first throw).
  void setRetryPolicy(RetryPolicy Policy) { Retry = Policy; }
  const RetryPolicy &retryPolicy() const { return Retry; }

private:
  TaskKind Kind;
  std::vector<ParDescriptor *> Alternatives;
  RetryPolicy Retry;
};

/// A DoPE task. Aggregates the functor, callbacks, and descriptor; runtime
/// state lives in the executive, keyed by the task's stable id.
class Task {
public:
  Task(std::string Name, TaskFn Fn, LoadFn Load, TaskDescriptor *Desc,
       HookFn Init, HookFn Fini, unsigned Id)
      : Name(std::move(Name)), Fn(std::move(Fn)), Load(std::move(Load)),
        Desc(Desc), Init(std::move(Init)), Fini(std::move(Fini)), Id(Id) {
    assert(Desc && "task needs a descriptor");
    assert(this->Fn && "task needs a functor");
  }

  const std::string &name() const { return Name; }
  unsigned id() const { return Id; }
  TaskKind kind() const { return Desc->kind(); }
  TaskDescriptor *descriptor() const { return Desc; }
  bool hasInner() const { return Desc->hasInner(); }

  /// Invokes the functor for one instance.
  TaskStatus invoke(TaskRuntime &RT) const { return Fn(RT); }

  /// Samples the load callback; zero when the developer registered none.
  double sampleLoad() const { return Load ? Load() : 0.0; }
  bool hasLoadCallback() const { return static_cast<bool>(Load); }

  void runInit() const {
    if (Init)
      Init();
  }
  void runFini() const {
    if (Fini)
      Fini();
  }

private:
  std::string Name;
  TaskFn Fn;
  LoadFn Load;
  TaskDescriptor *Desc;
  HookFn Init;
  HookFn Fini;
  unsigned Id;
};

/// Arena that owns every Task, TaskDescriptor, and ParDescriptor of an
/// application's parallelism description.
///
/// Typical construction is bottom-up, mirroring Figure 6 of the paper:
/// \code
///   TaskGraph G;
///   Task *Read  = G.createTask("read",  ReadFn,  {}, G.seqDescriptor());
///   Task *Xform = G.createTask("xform", XformFn, LoadQ1, G.parDescriptor());
///   Task *Write = G.createTask("write", WriteFn, LoadQ2, G.seqDescriptor());
///   ParDescriptor *Inner = G.createRegion({Read, Xform, Write});
///   Task *Outer = G.createTask("transcode", OuterFn, LoadWq,
///                              G.createDescriptor(TaskKind::Parallel,
///                                                 {Inner}));
///   ParDescriptor *Root = G.createRegion({Outer});
/// \endcode
class TaskGraph {
public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph &) = delete;
  TaskGraph &operator=(const TaskGraph &) = delete;

  /// Creates a task owned by the graph. \p Desc must come from this graph.
  Task *createTask(std::string Name, TaskFn Fn, LoadFn Load,
                   TaskDescriptor *Desc, HookFn Init = {}, HookFn Fini = {});

  /// Creates a descriptor with the given kind and inner alternatives.
  TaskDescriptor *createDescriptor(TaskKind Kind,
                                   std::vector<ParDescriptor *> Alts = {});

  /// Shorthand for a sequential leaf descriptor (SEQ, no inner).
  TaskDescriptor *seqDescriptor() {
    return createDescriptor(TaskKind::Sequential);
  }
  /// Shorthand for a parallel leaf descriptor (PAR, no inner).
  TaskDescriptor *parDescriptor() {
    return createDescriptor(TaskKind::Parallel);
  }

  /// Creates a parallel region over \p Tasks; the first is the master.
  ParDescriptor *createRegion(std::vector<Task *> Tasks);

  size_t taskCount() const { return Tasks.size(); }
  Task *taskById(unsigned Id) const {
    assert(Id < Tasks.size() && "task id out of range");
    return Tasks[Id].get();
  }

private:
  std::vector<std::unique_ptr<Task>> Tasks;
  std::vector<std::unique_ptr<TaskDescriptor>> Descriptors;
  std::vector<std::unique_ptr<ParDescriptor>> Regions;
};

} // namespace dope

#endif // DOPE_CORE_TASK_H
