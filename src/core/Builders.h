//===- core/Builders.h - High-level parallelism builders --------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mechanical-boilerplate elimination. The paper observes that "the
/// process of defining the functors is mechanical — it can be
/// simplified with compiler support" (Sec. 3.1). PipelineBuilder plays
/// the compiler's role as a library: it generates the functors, queues,
/// load callbacks, and the suspend/drain/reopen protocol of a typed
/// linear pipeline source -> stages -> sink, so an application states
/// only its stage bodies.
///
/// Everything it creates observes the reconfiguration protocol:
/// the source honours SUSPENDED from Task::begin by closing its output
/// queue, downstream stages drain to queue closure, and InitCBs reopen
/// the queues when the region restarts.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_BUILDERS_H
#define DOPE_CORE_BUILDERS_H

#include "core/Dope.h"
#include "core/Task.h"
#include "queue/BoundedQueue.h"

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <typeindex>
#include <vector>

namespace dope {

/// Fluent builder for a typed linear pipeline. Usage:
/// \code
///   PipelineBuilder B(Graph);
///   B.source<int>("read", [&]() -> std::optional<int> { ... });
///   B.stage<int, std::string>("render", [](int X) { ... });
///   B.sink<std::string>("write", [](std::string S) { ... });
///   ParDescriptor *Pipe = B.build();
/// \endcode
class PipelineBuilder {
public:
  explicit PipelineBuilder(TaskGraph &Graph) : Graph(Graph) {}

  /// Sets the capacity of inter-stage queues created *after* this call.
  /// Bounded queues give the pipeline backpressure: a fast producer
  /// blocks instead of racing arbitrarily far ahead of its consumer —
  /// which both bounds memory and keeps the producer alive long enough
  /// for load signals (and suspensions) to mean something. The default
  /// is effectively unbounded.
  PipelineBuilder &queueCapacity(size_t Capacity) {
    assert(Capacity > 0 && "queues need capacity");
    NextCapacity = Capacity;
    return *this;
  }

  /// The head of the pipeline: \p Produce returns items until
  /// std::nullopt ends the stream. Sources are sequential.
  ///
  /// Queue closure is a FiniCB, not an in-functor action: the executive
  /// runs a task's FiniCB only after *all* of its replicas have stopped,
  /// which is what makes the drain race-free — a replica observing
  /// end-of-input must not cut off a sibling that still holds an
  /// in-flight item.
  template <typename Out>
  PipelineBuilder &source(std::string Name,
                          std::function<std::optional<Out>()> Produce) {
    assert(Tasks.empty() && "source must come first");
    auto OutQ = std::make_shared<BoundedQueue<Out>>(NextCapacity);
    TaskFn Fn = [OutQ, Produce = std::move(Produce)](TaskRuntime &RT) {
      if (RT.begin() == TaskStatus::Suspended)
        return TaskStatus::Suspended; // FiniCB will signal downstream
      std::optional<Out> Item = Produce();
      if (!Item)
        return TaskStatus::Finished;
      OutQ->push(std::move(*Item));
      (void)RT.end();
      return TaskStatus::Executing;
    };
    HookFn Init = [OutQ] { OutQ->reopen(); };
    HookFn Fini = [OutQ] { OutQ->close(); };
    Tasks.push_back(Graph.createTask(std::move(Name), std::move(Fn),
                                     LoadFn(), Graph.seqDescriptor(),
                                     std::move(Init), std::move(Fini)));
    rememberQueue<Out>(OutQ);
    return *this;
  }

  /// An interior stage transforming In items to Out items. Parallel by
  /// default.
  template <typename In, typename Out>
  PipelineBuilder &stage(std::string Name,
                         std::function<Out(In)> Transform,
                         bool Parallel = true) {
    auto InQ = takeQueue<In>();
    auto OutQ = std::make_shared<BoundedQueue<Out>>(NextCapacity);
    TaskFn Fn = [InQ, OutQ,
                 Transform = std::move(Transform)](TaskRuntime &RT) {
      std::optional<In> Item = InQ->waitAndPop();
      if (!Item)
        return TaskStatus::Finished; // FiniCB closes the output
      (void)RT.begin();
      Out Result = Transform(std::move(*Item));
      (void)RT.end();
      OutQ->push(std::move(Result));
      return TaskStatus::Executing;
    };
    LoadFn Load = [InQ] { return static_cast<double>(InQ->size()); };
    HookFn Init = [OutQ] { OutQ->reopen(); };
    HookFn Fini = [OutQ] { OutQ->close(); };
    Tasks.push_back(Graph.createTask(
        std::move(Name), std::move(Fn), std::move(Load),
        Parallel ? Graph.parDescriptor() : Graph.seqDescriptor(),
        std::move(Init), std::move(Fini)));
    rememberQueue<Out>(OutQ);
    return *this;
  }

  /// The tail of the pipeline, consuming items. Sequential by default.
  template <typename In>
  PipelineBuilder &sink(std::string Name, std::function<void(In)> Consume,
                        bool Parallel = false) {
    auto InQ = takeQueue<In>();
    TaskFn Fn = [InQ, Consume = std::move(Consume)](TaskRuntime &RT) {
      std::optional<In> Item = InQ->waitAndPop();
      if (!Item)
        return TaskStatus::Finished;
      (void)RT.begin();
      Consume(std::move(*Item));
      (void)RT.end();
      return TaskStatus::Executing;
    };
    LoadFn Load = [InQ] { return static_cast<double>(InQ->size()); };
    Tasks.push_back(Graph.createTask(
        std::move(Name), std::move(Fn), std::move(Load),
        Parallel ? Graph.parDescriptor() : Graph.seqDescriptor()));
    return *this;
  }

  /// Finalizes the pipeline into a parallel region (first task = master).
  ParDescriptor *build() {
    assert(Tasks.size() >= 2 && "a pipeline needs a source and a sink");
    assert(!HasOpenOutput && "last stage must be a sink");
    ParDescriptor *Region = Graph.createRegion(Tasks);
    Tasks.clear();
    return Region;
  }

  size_t stageCount() const { return Tasks.size(); }

private:
  template <typename T>
  void rememberQueue(std::shared_ptr<BoundedQueue<T>> Q) {
    LastQueue = std::move(Q);
    LastType = std::type_index(typeid(T));
    HasOpenOutput = true;
  }

  template <typename T> std::shared_ptr<BoundedQueue<T>> takeQueue() {
    assert(HasOpenOutput && "stage/sink needs an upstream source/stage");
    assert(LastType == std::type_index(typeid(T)) &&
           "stage input type does not match upstream output type");
    auto Q = std::static_pointer_cast<BoundedQueue<T>>(LastQueue);
    HasOpenOutput = false;
    return Q;
  }

  TaskGraph &Graph;
  std::vector<Task *> Tasks;
  size_t NextCapacity = size_t(1) << 20; // effectively unbounded
  std::shared_ptr<void> LastQueue;
  std::type_index LastType{typeid(void)};
  bool HasOpenOutput = false;
};

} // namespace dope

#endif // DOPE_CORE_BUILDERS_H
