//===- mechanisms/ServerNest.cpp - Two-level server nest helpers -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/ServerNest.h"

#include "support/MathUtils.h"

#include <cassert>

using namespace dope;

bool dope::isServerNest(const ParDescriptor &Root) {
  if (Root.size() != 1)
    return false;
  return Root.masterTask()->hasInner();
}

RegionConfig dope::makeServerConfig(const ParDescriptor &Root,
                                    unsigned OuterExtent,
                                    unsigned InnerExtent, int AltIndex) {
  assert(isServerNest(Root) && "not a server nest");
  assert(OuterExtent >= 1 && "outer extent must be positive");

  const Task *Outer = Root.masterTask();
  TaskConfig OuterConfig;
  OuterConfig.Extent =
      Outer->kind() == TaskKind::Sequential ? 1 : OuterExtent;

  if (InnerExtent > 1) {
    assert(AltIndex >= 0 && static_cast<size_t>(AltIndex) <
                                Outer->descriptor()->alternativeCount() &&
           "alternative index out of range");
    const ParDescriptor *Inner =
        Outer->descriptor()->alternative(static_cast<size_t>(AltIndex));
    OuterConfig.AltIndex = AltIndex;

    // Sequential tasks take one thread each; parallel tasks split the
    // remaining budget evenly.
    unsigned SeqCount = 0;
    std::vector<double> Weights;
    for (const Task *T : Inner->tasks()) {
      const bool IsSeq = T->kind() == TaskKind::Sequential;
      SeqCount += IsSeq ? 1 : 0;
      Weights.push_back(IsSeq ? 0.0 : 1.0);
    }
    const unsigned Budget =
        InnerExtent > SeqCount ? InnerExtent - SeqCount : 0;
    // Every parallel task needs at least one replica even under a tiny
    // budget, hence MinEach below (handled by treating seq weight 0).
    std::vector<unsigned> Split;
    if (SeqCount == Inner->size()) {
      Split.assign(Inner->size(), 0);
    } else {
      Split = proportionalSplit(Budget, Weights, 0);
    }
    for (size_t I = 0; I != Inner->size(); ++I) {
      TaskConfig Child;
      const bool IsSeq = Inner->tasks()[I]->kind() == TaskKind::Sequential;
      Child.Extent = IsSeq ? 1 : std::max(1u, Split[I]);
      OuterConfig.Inner.push_back(Child);
    }
  }

  RegionConfig Config;
  Config.Tasks.push_back(std::move(OuterConfig));
  return Config;
}

std::optional<RegionConfig>
ServerConfigCache::propose(const ParDescriptor &Region, unsigned OuterExtent,
                           unsigned InnerExtent, int AltIndex,
                           const RegionConfig &Current) {
  if (&Region != BuiltFor || OuterExtent != BuiltOuter ||
      InnerExtent != BuiltInner || AltIndex != BuiltAlt) {
    Config = makeServerConfig(Region, OuterExtent, InnerExtent, AltIndex);
    BuiltFor = &Region;
    BuiltOuter = OuterExtent;
    BuiltInner = InnerExtent;
    BuiltAlt = AltIndex;
  }
  if (Config == Current)
    return std::nullopt;
  return Config;
}

unsigned dope::serverInnerExtent(const RegionConfig &Config) {
  assert(Config.Tasks.size() == 1 && "not a server-nest config");
  const TaskConfig &Outer = Config.Tasks.front();
  if (Outer.AltIndex < 0)
    return 1;
  unsigned Total = 0;
  for (const TaskConfig &Child : Outer.Inner)
    Total += Child.Extent;
  return Total == 0 ? 1 : Total;
}

unsigned dope::serverOuterExtent(const RegionConfig &Config) {
  assert(Config.Tasks.size() == 1 && "not a server-nest config");
  return Config.Tasks.front().Extent;
}

unsigned dope::outerExtentFor(unsigned MaxThreads, unsigned InnerExtent) {
  assert(InnerExtent >= 1 && "inner extent must be positive");
  const unsigned Outer = MaxThreads / InnerExtent;
  return Outer == 0 ? 1 : Outer;
}
