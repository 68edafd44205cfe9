//===- core/ControlLoop.h - One acceptance policy for proposals -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision step every driver of a Mechanism shares: the executive's
/// controller, replay and the nest and pipeline simulators. Under DoPE
/// the runtime, not the mechanism, decides whether a proposal takes
/// effect (Sec. 1 of the paper). Drivers keep only how they build the
/// snapshot and context, and how they apply an accepted config.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_CONTROLLOOP_H
#define DOPE_CORE_CONTROLLOOP_H

#include "core/Config.h"
#include "core/Mechanism.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>

namespace dope {

/// What the loop made of one proposal; every consult gets exactly one.
enum class Verdict : uint8_t {
  Unchanged,    ///< No proposal, or the running config.
  Pending,      ///< Equals the config accepted but not yet applied.
  Accepted,     ///< A valid change within the envelope.
  Invalid,      ///< Refused by validateConfig.
  OverEnvelope, ///< Valid, but wider than the caller's thread envelope.
};

/// True when the proposal is the config that runs next. A driver applies
/// an Accepted one; a Pending one is already stored, so the executive
/// (the only driver that passes a pending config) does nothing more.
inline bool takesEffect(Verdict V) {
  return V == Verdict::Accepted || V == Verdict::Pending;
}

/// How many consults got each verdict.
struct VerdictCounts {
  uint64_t Unchanged = 0;
  uint64_t Pending = 0;
  uint64_t Accepted = 0;
  uint64_t Invalid = 0;
  uint64_t OverEnvelope = 0;
};

/// Envelope of a driver that holds no thread lease. PipelineSim and
/// NestServerSim model oversubscription on purpose (their oversubscription
/// penalty): a config wider than the simulated contexts runs slower
/// instead of being refused, and tab15's SEDA baseline relies on that.
inline constexpr unsigned NoLease = std::numeric_limits<unsigned>::max();

/// Consults one mechanism over one region and judges its proposals.
class ControlLoop {
public:
  /// A driver without a mechanism passes null and never steps.
  ControlLoop(const ParDescriptor &Region, Mechanism *Mech)
      : Region(Region), Mech(Mech) {}

  /// Consults the mechanism and judges its proposal against \p Current,
  /// the thread \p Envelope and the accepted-but-unapplied \p Pending
  /// (null when none). Traces the Decision into Ctx.Trace at
  /// Ctx.NowSeconds: B = 1 iff the verdict takesEffect, with the config
  /// that runs next. After such a verdict, proposal() is the config.
  Verdict step(const RegionSnapshot &Snap, const RegionConfig &Current,
               const MechanismContext &Ctx, unsigned Envelope,
               const RegionConfig *Pending = nullptr);

  const RegionConfig &proposal() const { return *Proposal; }

  /// Tallies so far; safe to read from any thread while another steps.
  VerdictCounts counts() const;

private:
  const ParDescriptor &Region;
  Mechanism *Mech;
  std::optional<RegionConfig> Proposal;
  std::atomic<uint64_t> Counts[5] = {}; // by Verdict; one writer
};

} // namespace dope

#endif // DOPE_CORE_CONTROLLOOP_H
