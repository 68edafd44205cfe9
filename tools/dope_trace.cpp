//===- tools/dope_trace.cpp - Trace inspection and golden regen ------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line companion of the tracing subsystem:
///
///   dope_trace dump <trace.jsonl> [--kind <k>[,<k>...]] [--chrome <out>]
///       Prints a trace as a readable table, or converts it to Chrome
///       trace_event JSON (load in chrome://tracing or Perfetto).
///       --kind keeps only the named record kinds (the names stats
///       prints, e.g. --kind begin,end for task instances).
///
///   dope_trace stats <trace.jsonl>
///       Record counts per kind, time span, per-thread breakdown.
///
///   dope_trace diff <expected.decisions.jsonl> <actual.decisions.jsonl>
///       Compares two replay decision sequences; exit 1 and a report
///       naming the first divergent decision when they differ.
///
///   dope_trace replay --stream <file> --mechanism <name> [--out <file>]
///       Replays a recorded feature stream through a canonical mechanism
///       and writes the decision sequence (stdout by default).
///
///   dope_trace regen --dir <dir>
///       Regenerates the golden conformance suite: the committed feature
///       streams, the expected decision sequences of all seven
///       mechanisms (including the lease-step cases replaying arbiter
///       revocations through a mechanism), and the lease grant/revoke
///       trace of the canonical arbiter colocation scenario. Run after
///       an intentional mechanism or arbiter change, then review the
///       diffs like any other code change.
///
//===----------------------------------------------------------------------===//

#include "arbiter/Scenario.h"
#include "core/Replay.h"
#include "mechanisms/Factory.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace dope;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dope_trace dump <trace.jsonl> [--kind <k>[,<k>...]] "
      "[--chrome <out.json>]\n"
      "  dope_trace stats <trace.jsonl>\n"
      "  dope_trace diff <expected.jsonl> <actual.jsonl>\n"
      "  dope_trace replay --stream <file> --mechanism <name> "
      "[--out <file>]\n"
      "  dope_trace regen --dir <dir>\n");
  return 2;
}

/// Traces come from crashed runs as often as clean ones, so loading is
/// lenient: malformed lines (torn tails, interleaved writes, unknown
/// kinds from newer builds) are skipped with a count instead of failing
/// the whole file. Callers exit 3 when anything was skipped so scripts
/// notice the gap while humans still get the intact records.
std::optional<std::vector<TraceRecord>> loadTrace(const std::string &Path,
                                                  TraceReadStats &Stats) {
  std::ifstream IS(Path);
  if (!IS) {
    std::fprintf(stderr, "dope_trace: cannot open '%s'\n", Path.c_str());
    return std::nullopt;
  }
  std::vector<TraceRecord> Records = readTraceJsonlLenient(IS, &Stats);
  if (Stats.Skipped != 0)
    std::fprintf(stderr,
                 "dope_trace: %s: skipped %llu malformed line(s), first at "
                 "line %llu (%s); kept %llu\n",
                 Path.c_str(), static_cast<unsigned long long>(Stats.Skipped),
                 static_cast<unsigned long long>(Stats.FirstSkippedLine),
                 Stats.FirstError.c_str(),
                 static_cast<unsigned long long>(Stats.Parsed));
  return Records;
}

/// Exit code for commands that read a trace: corruption is reported but
/// not fatal — 0 clean, 3 when records were skipped.
int traceExit(const TraceReadStats &Stats) {
  return Stats.Skipped != 0 ? 3 : 0;
}

//===----------------------------------------------------------------------===//
// dump / stats
//===----------------------------------------------------------------------===//

int cmdDump(const std::vector<std::string> &Args) {
  if (Args.empty())
    return usage();
  std::string ChromeOut, KindList;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--chrome" && I + 1 < Args.size())
      ChromeOut = Args[++I];
    else if (Args[I] == "--kind" && I + 1 < Args.size())
      KindList = Args[++I];
    else
      return usage();
  }

  TraceReadStats Stats;
  std::optional<std::vector<TraceRecord>> Records = loadTrace(Args[0], Stats);
  if (!Records)
    return 1;

  if (!KindList.empty()) {
    std::vector<TraceKind> Kinds;
    std::stringstream KS(KindList);
    std::string Token;
    while (std::getline(KS, Token, ',')) {
      std::optional<TraceKind> Kind = traceKindFromString(Token);
      if (!Kind) {
        std::fprintf(stderr, "dope_trace: unknown record kind '%s'\n",
                     Token.c_str());
        return 1;
      }
      Kinds.push_back(*Kind);
    }
    std::vector<TraceRecord> Kept;
    for (TraceRecord &R : *Records)
      for (TraceKind K : Kinds)
        if (R.Kind == K) {
          Kept.push_back(std::move(R));
          break;
        }
    *Records = std::move(Kept);
  }

  if (!ChromeOut.empty()) {
    std::ofstream OS(ChromeOut);
    if (!OS) {
      std::fprintf(stderr, "dope_trace: cannot open '%s'\n",
                   ChromeOut.c_str());
      return 1;
    }
    writeChromeTrace(*Records, OS);
    std::printf("wrote %zu events to %s\n", Records->size(),
                ChromeOut.c_str());
    return traceExit(Stats);
  }

  std::printf("%12s  %-12s %3s  %-24s %10s %10s  %s\n", "time", "kind",
              "tid", "name", "a", "b", "detail");
  for (const TraceRecord &R : *Records)
    std::printf("%12.6f  %-12s %3u  %-24s %10.4g %10.4g  %s\n", R.Time,
                toString(R.Kind), R.Tid, R.Name.c_str(), R.A, R.B,
                R.Detail.c_str());
  return traceExit(Stats);
}

int cmdStats(const std::vector<std::string> &Args) {
  if (Args.empty())
    return usage();
  TraceReadStats Stats;
  std::optional<std::vector<TraceRecord>> Records = loadTrace(Args[0], Stats);
  if (!Records)
    return 1;
  if (Records->empty()) {
    std::printf("empty trace\n");
    return traceExit(Stats);
  }

  std::map<std::string, uint64_t> ByKind;
  std::map<uint32_t, uint64_t> ByTid;
  double MinT = Records->front().Time, MaxT = MinT;
  for (const TraceRecord &R : *Records) {
    ++ByKind[toString(R.Kind)];
    ++ByTid[R.Tid];
    MinT = std::min(MinT, R.Time);
    MaxT = std::max(MaxT, R.Time);
  }
  std::printf("%zu records over %.6f s [%.6f, %.6f]\n", Records->size(),
              MaxT - MinT, MinT, MaxT);
  std::printf("\nby kind:\n");
  for (const auto &[Kind, Count] : ByKind)
    std::printf("  %-12s %8llu\n", Kind.c_str(),
                static_cast<unsigned long long>(Count));
  std::printf("\nby thread:\n");
  for (const auto &[Tid, Count] : ByTid)
    std::printf("  tid %3u      %8llu\n", Tid,
                static_cast<unsigned long long>(Count));
  return traceExit(Stats);
}

//===----------------------------------------------------------------------===//
// diff
//===----------------------------------------------------------------------===//

std::optional<std::vector<ReplayDecision>>
loadDecisions(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::fprintf(stderr, "dope_trace: cannot open '%s'\n", Path.c_str());
    return std::nullopt;
  }
  std::string Error;
  bool TornTail = false;
  std::optional<std::vector<ReplayDecision>> Decisions =
      readDecisions(IS, &Error, &TornTail);
  if (!Decisions)
    std::fprintf(stderr, "dope_trace: %s: %s\n", Path.c_str(),
                 Error.c_str());
  else if (TornTail)
    std::fprintf(stderr,
                 "dope_trace: %s: torn final line dropped (writer died "
                 "mid-record); comparing the intact prefix\n",
                 Path.c_str());
  return Decisions;
}

int cmdDiff(const std::vector<std::string> &Args) {
  if (Args.size() != 2)
    return usage();
  std::optional<std::vector<ReplayDecision>> Expected =
      loadDecisions(Args[0]);
  std::optional<std::vector<ReplayDecision>> Actual = loadDecisions(Args[1]);
  if (!Expected || !Actual)
    return 1;
  if (std::optional<std::string> Report = diffDecisions(*Expected, *Actual)) {
    std::printf("%s\n", Report->c_str());
    return 1;
  }
  std::printf("decision sequences match (%zu decisions)\n", Expected->size());
  return 0;
}

//===----------------------------------------------------------------------===//
// Golden stream definitions
//===----------------------------------------------------------------------===//

// The canonical streams of the conformance suite. These are authored, not
// captured: each one scripts the observations that push its mechanisms
// through their interesting state transitions. Regenerate the committed
// files with `dope_trace regen --dir tests/golden` (or the trace-regen
// CMake target) after changing a definition or a mechanism.

/// Server-nest work-queue occupancy swinging light -> heavy -> light
/// (paper Sec. 2 / Fig. 2): drives WQT-H through both hysteresis toggles
/// and WQ-Linear down and back up the occupancy line.
FeatureStream makeNestLoadSwing() {
  FeatureStream S;
  S.Name = "nest-load-swing";
  S.Kind = FeatureStream::GraphKind::ServerNest;
  S.MaxThreads = 16;
  S.Stages = {{"server", true}};
  const double Occupancy[] = {2,  2,  2,  2, 2, 2, 12, 12, 12, 12,
                              12, 12, 5,  5, 1, 1, 1,  1,  1,  1};
  for (size_t I = 0; I != std::size(Occupancy); ++I) {
    ReplayStep Step;
    Step.Time = 0.25 * static_cast<double>(I + 1);
    Step.ExecTime = {1.0, 0.5};
    Step.Load = {Occupancy[I], Occupancy[I]};
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// Two-stage pipeline with a 20x stage imbalance that later evens out,
/// plus a fused alternative: TBF fuses once the warm-up expires; TB
/// rebalances instead when the service times shift.
FeatureStream makePipelineImbalance() {
  FeatureStream S;
  S.Name = "pipeline-imbalance";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 8;
  S.Stages = {{"decode", true}, {"encode", true}};
  S.FusedStages = {{"codec", true}};
  for (size_t I = 0; I != 13; ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    Step.ExecTime = I < 6 ? std::vector<double>{0.05, 1.0}
                          : std::vector<double>{0.5, 0.5};
    Step.Load = {1.0, 4.0};
    Step.FusedExecTime = {0.6};
    Step.FusedLoad = {2.0};
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// Three-stage pipeline with constant service times: FDP's hill climb is
/// closed-loop through the extents themselves (capacity = extent / exec),
/// so the full search-accept-reject-converge staircase replays.
FeatureStream makePipelineSteady() {
  FeatureStream S;
  S.Name = "pipeline-steady";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 8;
  S.Stages = {{"extract", true}, {"classify", true}, {"render", true}};
  for (size_t I = 0; I != 16; ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    Step.ExecTime = {0.2, 0.4, 0.3};
    Step.Load = {2.0, 3.0, 2.0};
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// Per-stage load bursts moving through a three-stage pipeline: SEDA's
/// uncoordinated watermark controllers grow and shrink one thread at a
/// time, stage by stage.
FeatureStream makePipelineBursts() {
  FeatureStream S;
  S.Name = "pipeline-bursts";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 12;
  S.Stages = {{"input", true}, {"filter", true}, {"output", true}};
  const std::vector<std::vector<double>> Loads = {
      {10, 0.5, 0.5}, {10, 0.5, 0.5}, {10, 0.5, 0.5}, {10, 0.5, 0.5},
      {0.5, 9, 0.5},  {0.5, 9, 0.5},  {0.5, 9, 0.5},  {0.5, 9, 0.5},
      {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5},
      {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}};
  for (size_t I = 0; I != Loads.size(); ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    Step.ExecTime = {0.1, 0.1, 0.1};
    Step.Load = Loads[I];
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// A power ramp crossing the budget (paper Fig. 14): TPC ramps the
/// bottleneck, overshoots the 100 W cap, backs off to the best feasible
/// configuration, explores its same-total neighbourhood, and settles.
FeatureStream makePipelinePowerRamp() {
  FeatureStream S;
  S.Name = "pipeline-power-ramp";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 8;
  S.PowerBudgetWatts = 100.0;
  S.Stages = {{"mix", true}, {"sink", true}};
  const double Power[] = {50, 55, 70, 85, 105, 85, 90, 75, 85, 85, 85, 85};
  for (size_t I = 0; I != std::size(Power); ++I) {
    ReplayStep Step;
    Step.Time = 1.0 * static_cast<double>(I + 1);
    Step.Features = {{"SystemPower", Power[I]}};
    Step.ExecTime = {0.3, 0.5};
    Step.Load = {2.0, 3.0};
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// A steady three-stage pipeline whose thread envelope steps down and
/// back up mid-stream — the arbiter revoking and then re-granting part
/// of the tenant's lease. TB must fold its balanced configuration under
/// the shrunken ceiling, then re-expand when the lease returns.
FeatureStream makePipelineLeaseSteps() {
  FeatureStream S;
  S.Name = "pipeline-lease-steps";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 12;
  S.Stages = {{"split", true}, {"compress", true}, {"pack", true}};
  for (size_t I = 0; I != 18; ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    if (I == 6)
      Step.ThreadEnvelope = 5; // lease revoked: 12 -> 5
    else if (I == 12)
      Step.ThreadEnvelope = 10; // partial re-grant: 5 -> 10
    Step.ExecTime = {0.1, 0.4, 0.15};
    Step.Load = {2.0, 4.0, 2.0};
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

/// A saturated server nest under the same treatment: WQT-H holds high
/// DoP while the queue is deep, gets squeezed to a 4-thread lease, and
/// recovers when the envelope re-opens.
FeatureStream makeNestLeaseSteps() {
  FeatureStream S;
  S.Name = "nest-lease-steps";
  S.Kind = FeatureStream::GraphKind::ServerNest;
  S.MaxThreads = 16;
  S.Stages = {{"server", true}};
  for (size_t I = 0; I != 20; ++I) {
    ReplayStep Step;
    Step.Time = 0.25 * static_cast<double>(I + 1);
    if (I == 8)
      Step.ThreadEnvelope = 4; // lease revoked: 16 -> 4
    else if (I == 14)
      Step.ThreadEnvelope = 16; // full lease restored
    Step.ExecTime = {1.0, 0.5};
    Step.Load = {10.0, 10.0};
    S.Steps.push_back(std::move(Step));
  }
  return S;
}

std::optional<FeatureStream> makeStreamByName(const std::string &Name) {
  if (Name == "nest-load-swing")
    return makeNestLoadSwing();
  if (Name == "pipeline-imbalance")
    return makePipelineImbalance();
  if (Name == "pipeline-steady")
    return makePipelineSteady();
  if (Name == "pipeline-bursts")
    return makePipelineBursts();
  if (Name == "pipeline-power-ramp")
    return makePipelinePowerRamp();
  if (Name == "pipeline-lease-steps")
    return makePipelineLeaseSteps();
  if (Name == "nest-lease-steps")
    return makeNestLeaseSteps();
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// replay / regen
//===----------------------------------------------------------------------===//

int cmdReplay(const std::vector<std::string> &Args) {
  std::string StreamPath, MechanismName, OutPath;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--stream" && I + 1 < Args.size())
      StreamPath = Args[++I];
    else if (Args[I] == "--mechanism" && I + 1 < Args.size())
      MechanismName = Args[++I];
    else if (Args[I] == "--out" && I + 1 < Args.size())
      OutPath = Args[++I];
    else
      return usage();
  }
  if (StreamPath.empty() || MechanismName.empty())
    return usage();

  std::ifstream IS(StreamPath);
  if (!IS) {
    std::fprintf(stderr, "dope_trace: cannot open '%s'\n",
                 StreamPath.c_str());
    return 1;
  }
  std::string Error;
  bool TornTail = false;
  std::optional<FeatureStream> Stream =
      readFeatureStream(IS, &Error, &TornTail);
  if (!Stream) {
    std::fprintf(stderr, "dope_trace: %s: %s\n", StreamPath.c_str(),
                 Error.c_str());
    return 1;
  }
  if (TornTail)
    std::fprintf(stderr,
                 "dope_trace: %s: torn final line dropped (writer died "
                 "mid-record); replaying the intact prefix\n",
                 StreamPath.c_str());
  std::unique_ptr<Mechanism> Mech = createMechanismByName(MechanismName);
  if (!Mech) {
    std::fprintf(stderr, "dope_trace: unknown mechanism '%s'\n",
                 MechanismName.c_str());
    return 1;
  }

  ReplayMechanismHarness Harness(std::move(*Stream));
  const ReplayResult Result = Harness.run(*Mech);
  if (const uint64_t Refused =
          Result.Verdicts.Invalid + Result.Verdicts.OverEnvelope)
    std::fprintf(stderr,
                 "dope_trace: warning: %llu refused proposals (%llu invalid, "
                 "%llu over the envelope)\n",
                 static_cast<unsigned long long>(Refused),
                 static_cast<unsigned long long>(Result.Verdicts.Invalid),
                 static_cast<unsigned long long>(Result.Verdicts.OverEnvelope));

  if (OutPath.empty()) {
    std::ostringstream OS;
    writeDecisions(Result.Decisions, OS);
    std::fputs(OS.str().c_str(), stdout);
    return 0;
  }
  std::ofstream OS(OutPath);
  if (!OS) {
    std::fprintf(stderr, "dope_trace: cannot open '%s'\n", OutPath.c_str());
    return 1;
  }
  writeDecisions(Result.Decisions, OS);
  std::printf("%s: %zu decisions -> %s\n", MechanismName.c_str(),
              Result.Decisions.size(), OutPath.c_str());
  return 0;
}

int cmdRegen(const std::vector<std::string> &Args) {
  std::string Dir;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--dir" && I + 1 < Args.size())
      Dir = Args[++I];
    else
      return usage();
  }
  if (Dir.empty())
    return usage();

  // Streams first (each exactly once, some serve several mechanisms).
  std::vector<std::string> StreamNames;
  for (const ConformanceCase &Case : conformanceCases()) {
    bool Seen = false;
    for (const std::string &Name : StreamNames)
      Seen |= Name == Case.StreamName;
    if (!Seen)
      StreamNames.push_back(Case.StreamName);
  }
  for (const std::string &Name : StreamNames) {
    std::optional<FeatureStream> Stream = makeStreamByName(Name);
    if (!Stream) {
      std::fprintf(stderr, "dope_trace: no definition for stream '%s'\n",
                   Name.c_str());
      return 1;
    }
    const std::string Path = Dir + "/" + Name + ".stream.jsonl";
    std::ofstream OS(Path);
    if (!OS) {
      std::fprintf(stderr, "dope_trace: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    writeFeatureStream(*Stream, OS);
    std::printf("stream   %-22s %4zu steps -> %s\n", Name.c_str(),
                Stream->Steps.size(), Path.c_str());
  }

  // Then the expected decision sequence of every mechanism.
  for (const ConformanceCase &Case : conformanceCases()) {
    std::optional<FeatureStream> Stream = makeStreamByName(Case.StreamName);
    std::unique_ptr<Mechanism> Mech =
        createMechanismByName(Case.MechanismName);
    if (!Stream || !Mech) {
      std::fprintf(stderr, "dope_trace: bad conformance case %s/%s\n",
                   Case.MechanismName, Case.StreamName);
      return 1;
    }
    ReplayMechanismHarness Harness(std::move(*Stream));
    const ReplayResult Result = Harness.run(*Mech);
    if (const uint64_t Refused =
            Result.Verdicts.Invalid + Result.Verdicts.OverEnvelope) {
      std::fprintf(stderr,
                   "dope_trace: %s made %llu refused proposals on %s — "
                   "refusing to bless them as golden\n",
                   Case.MechanismName,
                   static_cast<unsigned long long>(Refused), Case.StreamName);
      return 1;
    }
    const std::string Path =
        Dir + "/" + std::string(Case.decisionsFile()) + ".decisions.jsonl";
    std::ofstream OS(Path);
    if (!OS) {
      std::fprintf(stderr, "dope_trace: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    writeDecisions(Result.Decisions, OS);
    std::printf("decision %-22s %4zu decisions (on %s) -> %s\n",
                Case.decisionsFile(), Result.Decisions.size(),
                Case.StreamName, Path.c_str());
  }

  // Finally the arbiter's own golden: the lease grant/revoke sequence of
  // the canonical colocation scenario, byte-identical under replay
  // (ArbiterConformanceTest re-runs the scenario and diffs).
  {
    Tracer Trace;
    const ArbiterScenario Scenario = makeCanonicalColocationScenario();
    runArbiterScenario(Scenario, &Trace);
    std::vector<TraceRecord> Leases;
    for (TraceRecord &R : Trace.drain())
      if (R.Kind == TraceKind::LeaseGrant || R.Kind == TraceKind::LeaseRevoke)
        Leases.push_back(std::move(R));
    const std::string Path = Dir + "/" + Scenario.Name + ".leases.jsonl";
    std::ofstream OS(Path);
    if (!OS) {
      std::fprintf(stderr, "dope_trace: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    writeTraceJsonl(Leases, OS);
    std::printf("leases   %-22s %4zu records -> %s\n", Scenario.Name.c_str(),
                Leases.size(), Path.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Command = Argv[1];
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (Command == "dump")
    return cmdDump(Args);
  if (Command == "stats")
    return cmdStats(Args);
  if (Command == "diff")
    return cmdDiff(Args);
  if (Command == "replay")
    return cmdReplay(Args);
  if (Command == "regen")
    return cmdRegen(Args);
  return usage();
}
