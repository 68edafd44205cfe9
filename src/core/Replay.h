//===- core/Replay.h - Deterministic mechanism replay ----------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic replay of recorded feature streams through Mechanism
/// implementations, in isolation from any executive or simulator.
///
/// A FeatureStream is a pure description of what a mechanism would have
/// observed over a run: the region shape (pipeline stages or a server
/// nest), the constraint envelope (thread budget, power budget), and a
/// time-ordered sequence of steps carrying platform features and per-stage
/// measurements. The ReplayMechanismHarness re-feeds the stream to any
/// Mechanism step by step through the executive's ControlLoop (a decision
/// is recorded only when the loop accepts a valid change within the step's
/// thread envelope), and returns the full decision sequence.
///
/// Uses:
///   * golden-trace conformance tests — a committed stream replayed
///     through each mechanism must reproduce its committed decision
///     sequence exactly (tests/golden/, MechanismConformanceTest.cpp);
///   * property tests — randomized streams assert budget and power-cap
///     invariants on whatever decisions come out;
///   * differential tests — two mechanisms on one stream, compared.
///
/// Budget discipline is a property of the mechanisms themselves and replay
/// is where it is checked: a proposal over the envelope is refused, never
/// clamped, and counted in ReplayResult::Verdicts.OverEnvelope.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_REPLAY_H
#define DOPE_CORE_REPLAY_H

#include "core/Config.h"
#include "core/ControlLoop.h"
#include "core/FeatureRegistry.h"
#include "core/Monitor.h"
#include "core/Task.h"

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dope {

class Tracer;

/// One stage of a replayed region description.
struct ReplayStageSpec {
  std::string Name;
  bool Parallel = true;
};

/// One observation step of a recorded stream.
struct ReplayStep {
  /// Virtual time of the step in seconds (MechanismContext::NowSeconds).
  double Time = 0.0;

  /// Thread envelope in force from this step on: the arbiter's lease as
  /// seen by the tenant's executive (Dope::setThreadEnvelope). 0 means
  /// "unchanged"; the stream starts at FeatureStream::MaxThreads. The
  /// harness clamps the value into [1, MaxThreads], feeds it to the
  /// mechanism as its MaxThreads ceiling and refuses proposals above it,
  /// so lease grant/revoke sequences replay deterministically.
  unsigned ThreadEnvelope = 0;

  /// Platform features visible at this step ("SystemPower",
  /// "LiveContexts", ...), in stable order for byte-identical files.
  std::vector<std::pair<std::string, double>> Features;

  /// Per-stage smoothed execution time in seconds, indexed like
  /// FeatureStream::Stages (for a server nest: one entry, the outer
  /// task). A stage with ExecTime <= 0 is *unmeasured*: its snapshot
  /// reports zero invocations, which gates mechanisms that require a
  /// fully measured region.
  std::vector<double> ExecTime;

  /// Per-stage load (queue occupancy), indexed like ExecTime.
  std::vector<double> Load;

  /// Measurements of the fused alternative's stages (pipeline streams
  /// with a fused alternative only), indexed like
  /// FeatureStream::FusedStages. Empty means unmeasured.
  std::vector<double> FusedExecTime;
  std::vector<double> FusedLoad;
};

/// A recorded feature stream: region shape + constraints + steps.
struct FeatureStream {
  enum class GraphKind {
    /// Driver-wrapped pipeline: root{ driver(SEQ, alt0 = Stages,
    /// alt1 = FusedStages when nonempty) }.
    Pipeline,
    /// Server nest: root{ outer(PAR, alt0 = { work(PAR) }) }.
    ServerNest,
  };

  std::string Name;
  GraphKind Kind = GraphKind::Pipeline;
  unsigned MaxThreads = 8;
  double PowerBudgetWatts = 0.0;
  std::vector<ReplayStageSpec> Stages;
  std::vector<ReplayStageSpec> FusedStages;
  std::vector<ReplayStep> Steps;
};

/// Writes \p Stream as JSONL: a header object, then one object per step.
void writeFeatureStream(const FeatureStream &Stream, std::ostream &OS);

/// Reads a stream written by writeFeatureStream; std::nullopt + \p Error
/// on malformed input. A malformed *final* record is tolerated as a torn
/// tail — the writer died mid-line — and the intact prefix is returned,
/// with \p TornTail (when provided) set so callers can report it;
/// corruption anywhere earlier still fails the whole read.
std::optional<FeatureStream> readFeatureStream(std::istream &IS,
                                               std::string *Error = nullptr,
                                               bool *TornTail = nullptr);

/// One accepted reconfiguration during a replay.
struct ReplayDecision {
  /// Index of the stream step that produced the decision.
  uint64_t Step = 0;
  /// The step's virtual time.
  double Time = 0.0;
  /// The new configuration rendered by toString (human-diffable).
  std::string Config;
  /// Threads the new configuration occupies.
  unsigned TotalThreads = 0;
  /// The budget in force (MechanismContext::effectiveThreads) when the
  /// decision was made.
  unsigned Budget = 0;
  /// Leaf extents of the new configuration in depth-first descriptor
  /// order (inactive alternatives excluded).
  std::vector<unsigned> Extents;

  bool operator==(const ReplayDecision &Other) const {
    return Step == Other.Step && Config == Other.Config &&
           TotalThreads == Other.TotalThreads && Extents == Other.Extents;
  }
};

/// Writes decisions as JSONL, one object per decision.
void writeDecisions(const std::vector<ReplayDecision> &Decisions,
                    std::ostream &OS);

/// Reads decisions written by writeDecisions. Like readFeatureStream, a
/// torn final line is tolerated (\p TornTail reports it); earlier
/// corruption fails the read.
std::optional<std::vector<ReplayDecision>>
readDecisions(std::istream &IS, std::string *Error = nullptr,
              bool *TornTail = nullptr);

/// Compares an actual decision sequence against an expected (golden) one.
/// Returns std::nullopt on an exact match, otherwise a readable report
/// pinpointing the first divergent decision (index, step, both renderings)
/// rather than a blob diff.
std::optional<std::string>
diffDecisions(const std::vector<ReplayDecision> &Expected,
              const std::vector<ReplayDecision> &Actual);

/// Result of replaying one stream through one mechanism.
struct ReplayResult {
  std::vector<ReplayDecision> Decisions;
  RegionConfig FinalConfig;
  /// The control loop's verdicts; Invalid and OverEnvelope count refused
  /// proposals (a mechanism bug worth asserting on).
  VerdictCounts Verdicts;
};

/// Replays a FeatureStream through a Mechanism.
class ReplayMechanismHarness {
public:
  /// Called before each step with the step index and the configuration
  /// currently "running"; may override features for the step, closing
  /// the loop for features that respond to configuration (e.g. a power
  /// model feeding "SystemPower" back to TPC).
  using StepHook = std::function<void(size_t Step, const RegionConfig &Current,
                                      std::map<std::string, double> &Features)>;

  explicit ReplayMechanismHarness(FeatureStream Stream);
  ~ReplayMechanismHarness();
  ReplayMechanismHarness(const ReplayMechanismHarness &) = delete;
  ReplayMechanismHarness &operator=(const ReplayMechanismHarness &) = delete;

  void setStepHook(StepHook Hook) { Hook_ = std::move(Hook); }

  /// Replays the whole stream through \p M (which is reset() first).
  /// When \p Trace is non-null, every consult is recorded as a Decision
  /// record and every feature read as a FeatureRead, stamped with stream
  /// time.
  ReplayResult run(Mechanism &M, Tracer *Trace = nullptr);

  const FeatureStream &stream() const { return Stream; }
  const ParDescriptor &root() const { return *Root; }

private:
  RegionSnapshot buildSnapshot(const ReplayStep &Step,
                               const RegionConfig &Current,
                               uint64_t Invocations) const;

  FeatureStream Stream;
  std::unique_ptr<TaskGraph> Graph;
  ParDescriptor *Root = nullptr;
  // Pipeline shape.
  Task *Driver = nullptr;
  std::vector<Task *> StageTasks;
  std::vector<Task *> FusedTasks;
  // Server-nest shape.
  Task *Outer = nullptr;
  Task *InnerWork = nullptr;

  StepHook Hook_;
  /// Feature values for the step being replayed; the registry's
  /// callbacks read through this map.
  std::map<std::string, double> CurrentFeatures;
  FeatureRegistry Registry;
};

/// Depth-first leaf extents of \p Config (active alternatives only) —
/// the flat form stored in ReplayDecision::Extents.
std::vector<unsigned> flattenExtents(const RegionConfig &Config);

} // namespace dope

#endif // DOPE_CORE_REPLAY_H
