//===- core/Config.cpp - Parallelism configurations ------------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Config.h"

#include <cassert>

using namespace dope;

static unsigned threadsForTask(const Task &T, const TaskConfig &Config) {
  unsigned PerReplica = 1;
  if (Config.AltIndex >= 0) {
    const ParDescriptor *Inner =
        T.descriptor()->alternative(static_cast<size_t>(Config.AltIndex));
    unsigned InnerTotal = 0;
    assert(Config.Inner.size() == Inner->size() &&
           "inner config arity mismatch");
    for (size_t I = 0; I != Inner->size(); ++I)
      InnerTotal += threadsForTask(*Inner->tasks()[I], Config.Inner[I]);
    // The parent replica runs the inner master task itself.
    PerReplica += InnerTotal > 0 ? InnerTotal - 1 : 0;
  }
  return Config.Extent * PerReplica;
}

unsigned dope::totalThreads(const ParDescriptor &Region,
                            const RegionConfig &Config) {
  assert(Config.Tasks.size() == Region.size() && "config arity mismatch");
  unsigned Total = 0;
  for (size_t I = 0; I != Region.size(); ++I)
    Total += threadsForTask(*Region.tasks()[I], Config.Tasks[I]);
  return Total;
}

static bool validateTask(const Task &T, const TaskConfig &Config,
                         std::string *ErrorMessage) {
  auto Fail = [&](const std::string &Message) {
    if (ErrorMessage)
      *ErrorMessage = "task '" + T.name() + "': " + Message;
    return false;
  };

  if (Config.Extent < 1)
    return Fail("extent must be at least 1");
  if (T.kind() == TaskKind::Sequential && Config.Extent != 1)
    return Fail("sequential task must have extent 1");
  if (Config.AltIndex < 0) {
    if (!Config.Inner.empty())
      return Fail("inner configs present without an active alternative");
    return true;
  }
  if (!T.hasInner())
    return Fail("alternative selected but task has no inner descriptor");
  if (static_cast<size_t>(Config.AltIndex) >= T.descriptor()->alternativeCount())
    return Fail("alternative index out of range");
  const ParDescriptor *Inner =
      T.descriptor()->alternative(static_cast<size_t>(Config.AltIndex));
  if (Config.Inner.size() != Inner->size())
    return Fail("inner config arity mismatch");
  for (size_t I = 0; I != Inner->size(); ++I)
    if (!validateTask(*Inner->tasks()[I], Config.Inner[I], ErrorMessage))
      return false;
  return true;
}

bool dope::validateConfig(const ParDescriptor &Region,
                          const RegionConfig &Config,
                          std::string *ErrorMessage) {
  if (Config.Tasks.size() != Region.size()) {
    if (ErrorMessage)
      *ErrorMessage = "region config arity mismatch";
    return false;
  }
  for (size_t I = 0; I != Region.size(); ++I)
    if (!validateTask(*Region.tasks()[I], Config.Tasks[I], ErrorMessage))
      return false;
  return true;
}

static TaskConfig defaultTaskConfig(const Task &T) {
  TaskConfig Config;
  Config.Extent = 1;
  if (!T.hasInner())
    return Config;
  Config.AltIndex = 0;
  const ParDescriptor *Inner = T.descriptor()->alternative(0);
  for (Task *Child : Inner->tasks())
    Config.Inner.push_back(defaultTaskConfig(*Child));
  return Config;
}

RegionConfig dope::defaultConfig(const ParDescriptor &Region) {
  RegionConfig Config;
  for (Task *T : Region.tasks())
    Config.Tasks.push_back(defaultTaskConfig(*T));
  return Config;
}

static std::string renderRegion(const ParDescriptor &Region,
                                const RegionConfig &Config);

static std::string renderTask(const Task &T, const TaskConfig &Config) {
  std::string Out = "(";
  Out += std::to_string(Config.Extent);
  Out += ", ";
  if (Config.AltIndex < 0) {
    Out += T.kind() == TaskKind::Parallel ? "PAR" : "SEQ";
    return Out + ")";
  }
  const ParDescriptor *Inner =
      T.descriptor()->alternative(static_cast<size_t>(Config.AltIndex));
  Out += toString(Inner->parKind());
  RegionConfig InnerConfig;
  InnerConfig.Tasks = Config.Inner;
  Out += ' ';
  Out += renderRegion(*Inner, InnerConfig);
  return Out + ")";
}

static std::string renderRegion(const ParDescriptor &Region,
                                const RegionConfig &Config) {
  std::string Out = "<";
  for (size_t I = 0; I != Region.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += renderTask(*Region.tasks()[I], Config.Tasks[I]);
  }
  return Out + ">";
}

std::string dope::toString(const ParDescriptor &Region,
                           const RegionConfig &Config) {
  assert(Config.Tasks.size() == Region.size() && "config arity mismatch");
  return renderRegion(Region, Config);
}
