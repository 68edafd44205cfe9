//===- analysis/TaskDag.cpp - Spawn DAG reconstruction ---------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/TaskDag.h"

#include <cmath>
#include <map>
#include <utility>

using namespace dope;

static uint64_t asInstanceId(double Value) {
  return Value < 0.0 ? 0 : static_cast<uint64_t>(std::llround(Value));
}

TaskDag TaskDag::build(std::vector<TraceRecord> Records) {
  // Canonical order makes the build independent of which thread
  // recorded what, and sorts a TaskBegin before the TaskEnd that
  // shares its timestamp (Kind breaks the tie).
  canonicalizeTrace(Records);

  TaskDag Dag;
  // (task name, instance id) -> index of the latest begun instance with
  // that key. Instance ids recur across epochs in native traces (replica
  // indices restart every epoch), so latest-wins is the correct match
  // for both TaskEnd pairing and spawner lookup: a spawner necessarily
  // began before its child, and an ended instance is superseded by the
  // next epoch's begin before it can be referenced again.
  std::map<std::pair<std::string, uint64_t>, size_t> Latest;

  for (TraceRecord &R : Records) {
    if (R.Kind == TraceKind::TaskBegin) {
      TaskInstance Inst;
      Inst.Task = R.Name;
      Inst.Id = asInstanceId(R.A);
      Inst.BeginTime = R.Time;
      if (!R.Detail.empty()) {
        auto Spawner = Latest.find({R.Detail, asInstanceId(R.B)});
        if (Spawner != Latest.end())
          Inst.Parent = Spawner->second;
        // An unmatched spawner (trimmed trace head) degrades the
        // instance to a root instead of failing the build.
      }
      const size_t Index = Dag.Instances.size();
      if (Inst.Parent == TaskInstance::npos)
        Dag.Roots.push_back(Index);
      else
        Dag.Instances[Inst.Parent].Children.push_back(Index);
      Latest[{Inst.Task, Inst.Id}] = Index;
      bool Known = false;
      for (const std::string &N : Dag.Names)
        Known |= N == Inst.Task;
      if (!Known)
        Dag.Names.push_back(Inst.Task);
      Dag.Instances.push_back(std::move(Inst));
      continue;
    }
    if (R.Kind == TraceKind::TaskEnd) {
      auto It = Latest.find({R.Name, asInstanceId(R.A)});
      if (It == Latest.end())
        continue; // end without a surviving begin (trimmed head)
      TaskInstance &Inst = Dag.Instances[It->second];
      if (Inst.completed())
        continue; // already ended; a duplicate end is noise
      Inst.EndTime = R.Time;
      Inst.Elapsed = R.B;
      ++Dag.Completed;
    }
  }
  return Dag;
}

TaskDag TaskDag::fromJsonl(std::istream &IS, TraceReadStats *Stats) {
  return build(readTraceJsonlLenient(IS, Stats));
}
