//===- core/Task.cpp - Tasks and parallelism descriptors -------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Task.h"

using namespace dope;

ParKind ParDescriptor::parKind() const {
  if (Tasks.size() > 1)
    return ParKind::Pipe;
  return Tasks.front()->kind() == TaskKind::Parallel ? ParKind::DoAll
                                                     : ParKind::Seq;
}

Task *TaskGraph::createTask(std::string Name, TaskFn Fn, LoadFn Load,
                            TaskDescriptor *Desc, HookFn Init, HookFn Fini) {
  const unsigned Id = static_cast<unsigned>(Tasks.size());
  Tasks.push_back(std::make_unique<Task>(std::move(Name), std::move(Fn),
                                         std::move(Load), Desc,
                                         std::move(Init), std::move(Fini),
                                         Id));
  return Tasks.back().get();
}

TaskDescriptor *
TaskGraph::createDescriptor(TaskKind Kind,
                            std::vector<ParDescriptor *> Alts) {
  Descriptors.push_back(
      std::make_unique<TaskDescriptor>(Kind, std::move(Alts)));
  return Descriptors.back().get();
}

ParDescriptor *TaskGraph::createRegion(std::vector<Task *> Tasks) {
  Regions.push_back(std::make_unique<ParDescriptor>(std::move(Tasks)));
  return Regions.back().get();
}
