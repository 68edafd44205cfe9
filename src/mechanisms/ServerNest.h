//===- mechanisms/ServerNest.h - Two-level server nest helpers -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the canonical server-style loop nest of Sec. 2 of the
/// paper: an outer loop over user transactions (DOALL across requests)
/// whose single task optionally exploits inner parallelism (a pipeline or
/// DOALL over the items of one transaction):
///
///   <DoP_outer, DoP_inner> with DoP_outer * DoP_inner <= N.
///
/// The response-time mechanisms (WQT-H, WQ-Linear) and the benchmark
/// harnesses all speak in terms of a scalar inner extent M; these helpers
/// translate that scalar into a full RegionConfig for the descriptor tree
/// and back.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_MECHANISMS_SERVERNEST_H
#define DOPE_MECHANISMS_SERVERNEST_H

#include "core/Config.h"
#include "core/Task.h"

#include <optional>

namespace dope {

/// True when \p Root has the server-nest shape: exactly one task, which
/// carries at least one inner alternative.
bool isServerNest(const ParDescriptor &Root);

/// Builds the configuration <(OuterExtent, DOALL), (InnerExtent, ...)> for
/// a server nest.
///
/// When InnerExtent <= 1 the inner alternative is disabled (sequential
/// transactions). Otherwise alternative \p AltIndex is activated and the
/// inner extent is distributed within it: sequential tasks get one thread
/// each and parallel tasks evenly split the remainder (at least one each).
/// The inner region's total extent equals max(InnerExtent, #inner tasks).
RegionConfig makeServerConfig(const ParDescriptor &Root, unsigned OuterExtent,
                              unsigned InnerExtent, int AltIndex = 0);

/// The proposal step shared by the server-nest mechanisms (WQT-H,
/// WQ-Linear, EDP). Keeps the last config makeServerConfig built, keyed by
/// region, extents and alternative, and rebuilds only when that key
/// changes, so the steady-state decision (the config already running)
/// allocates nothing.
class ServerConfigCache {
public:
  /// makeServerConfig(Region, OuterExtent, InnerExtent, AltIndex), or
  /// std::nullopt exactly when that config equals \p Current.
  std::optional<RegionConfig> propose(const ParDescriptor &Region,
                                      unsigned OuterExtent,
                                      unsigned InnerExtent, int AltIndex,
                                      const RegionConfig &Current);

  /// Forgets the cached config. Mechanisms call this from reset(), so one
  /// reused on another graph never proposes a config built for the old one.
  void clear() { BuiltFor = nullptr; }

private:
  /// The key Config was built for; no config while BuiltFor is null.
  const ParDescriptor *BuiltFor = nullptr;
  unsigned BuiltOuter = 0;
  unsigned BuiltInner = 0;
  int BuiltAlt = 0;
  RegionConfig Config;
};

/// Extracts the scalar inner extent of a server-nest configuration: the
/// sum of inner extents when an alternative is active, 1 otherwise.
unsigned serverInnerExtent(const RegionConfig &Config);

/// Extracts the outer extent.
unsigned serverOuterExtent(const RegionConfig &Config);

/// Computes the outer extent that fills \p MaxThreads given an inner
/// extent M: floor(N / M), at least 1.
unsigned outerExtentFor(unsigned MaxThreads, unsigned InnerExtent);

} // namespace dope

#endif // DOPE_MECHANISMS_SERVERNEST_H
