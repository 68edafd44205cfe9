//===- tests/MechanismConformanceTest.cpp - Golden-trace conformance -------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The golden-trace conformance suite: every mechanism replays its
/// committed feature stream (tests/golden/<stream>.stream.jsonl) and the
/// resulting decision sequence must match the committed golden sequence
/// (tests/golden/<mechanism>.decisions.jsonl) exactly. A mismatch fails
/// with a report naming the first divergent decision.
///
/// These tests freeze the *decision behaviour* of the seven mechanisms:
/// an intentional change regenerates the goldens via the `trace-regen`
/// target (`dope_trace regen --dir tests/golden`) and the decision diff
/// is reviewed like any other code change; an accidental change is caught
/// here before it silently shifts every downstream experiment.
///
//===----------------------------------------------------------------------===//

#include "core/Replay.h"
#include "mechanisms/Factory.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace dope;

#ifndef DOPE_GOLDEN_DIR
#error "DOPE_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

FeatureStream loadStream(const std::string &Name) {
  const std::string Path =
      std::string(DOPE_GOLDEN_DIR) + "/" + Name + ".stream.jsonl";
  std::ifstream IS(Path);
  EXPECT_TRUE(IS.good()) << "missing golden stream: " << Path
                         << " (run the trace-regen target)";
  std::string Error;
  std::optional<FeatureStream> Stream = readFeatureStream(IS, &Error);
  EXPECT_TRUE(Stream.has_value()) << Path << ": " << Error;
  return Stream ? std::move(*Stream) : FeatureStream{};
}

std::vector<ReplayDecision> loadGoldenDecisions(const std::string &Name) {
  const std::string Path =
      std::string(DOPE_GOLDEN_DIR) + "/" + Name + ".decisions.jsonl";
  std::ifstream IS(Path);
  EXPECT_TRUE(IS.good()) << "missing golden decisions: " << Path
                         << " (run the trace-regen target)";
  std::string Error;
  std::optional<std::vector<ReplayDecision>> Decisions =
      readDecisions(IS, &Error);
  EXPECT_TRUE(Decisions.has_value()) << Path << ": " << Error;
  return Decisions ? std::move(*Decisions) : std::vector<ReplayDecision>{};
}

class MechanismConformance
    : public ::testing::TestWithParam<ConformanceCase> {};

} // namespace

namespace dope {
// Without a printer gtest shows a ConformanceCase as the bytes of its
// string pointers, which differ from process to process, and that text
// becomes part of each test's ctest name at discovery time.
void PrintTo(const ConformanceCase &C, std::ostream *OS) {
  *OS << C.MechanismName << " replaying " << C.StreamName;
}
} // namespace dope

TEST_P(MechanismConformance, ReplayMatchesGolden) {
  const ConformanceCase &Case = GetParam();
  FeatureStream Stream = loadStream(Case.StreamName);
  ASSERT_FALSE(Stream.Steps.empty());
  const std::vector<ReplayDecision> Golden =
      loadGoldenDecisions(Case.decisionsFile());

  std::unique_ptr<Mechanism> Mech = createMechanismByName(Case.MechanismName);
  ASSERT_NE(Mech, nullptr);

  ReplayMechanismHarness Harness(std::move(Stream));
  const ReplayResult Result = Harness.run(*Mech);
  EXPECT_EQ(Result.Verdicts.Invalid, 0u)
      << Case.MechanismName << " proposed structurally invalid configs";
  EXPECT_EQ(Result.Verdicts.OverEnvelope, 0u)
      << Case.MechanismName << " proposed configs over the thread envelope";

  // Budget discipline: no accepted decision may exceed the live budget
  // in force when it was made (the harness refuses, never clamps, a
  // proposal over the envelope — staying inside is the mechanisms' own
  // responsibility, and what makes lease revocation safe to apply
  // through them).
  for (const ReplayDecision &D : Result.Decisions)
    EXPECT_LE(D.TotalThreads, D.Budget)
        << Case.MechanismName << " overran its envelope at step " << D.Step;

  if (std::optional<std::string> Report =
          diffDecisions(Golden, Result.Decisions))
    FAIL() << Case.MechanismName << " on " << Case.StreamName << ":\n"
           << *Report
           << "\n(intentional change? regenerate with the trace-regen "
              "target and review the diff)";

  // The golden suite only means something if the stream actually drives
  // the mechanism through decisions.
  EXPECT_FALSE(Golden.empty())
      << Case.StreamName << " never made " << Case.MechanismName
      << " change configuration";
}

TEST_P(MechanismConformance, ReplayIsDeterministic) {
  const ConformanceCase &Case = GetParam();
  FeatureStream Stream = loadStream(Case.StreamName);
  ASSERT_FALSE(Stream.Steps.empty());

  // Two independent harnesses and mechanism instances: identical decision
  // sequences, byte-identical serialization.
  auto RunOnce = [&] {
    std::unique_ptr<Mechanism> Mech =
        createMechanismByName(Case.MechanismName);
    ReplayMechanismHarness Harness(Stream);
    return Harness.run(*Mech);
  };
  const ReplayResult First = RunOnce();
  const ReplayResult Second = RunOnce();
  EXPECT_FALSE(diffDecisions(First.Decisions, Second.Decisions).has_value());

  std::ostringstream A, B;
  writeDecisions(First.Decisions, A);
  writeDecisions(Second.Decisions, B);
  EXPECT_EQ(A.str(), B.str());
}

TEST_P(MechanismConformance, TracedReplayRecordsEveryConsult) {
  const ConformanceCase &Case = GetParam();
  FeatureStream Stream = loadStream(Case.StreamName);
  ASSERT_FALSE(Stream.Steps.empty());
  const size_t Steps = Stream.Steps.size();

  std::unique_ptr<Mechanism> Mech = createMechanismByName(Case.MechanismName);
  Tracer Trace(1 << 14);
  ReplayMechanismHarness Harness(std::move(Stream));
  const ReplayResult Result = Harness.run(*Mech, &Trace);

  size_t DecisionRecords = 0, AcceptedRecords = 0;
  for (const TraceRecord &R : Trace.drain()) {
    if (R.Kind != TraceKind::Decision)
      continue;
    ++DecisionRecords;
    AcceptedRecords += R.B == 1.0;
    EXPECT_EQ(R.Name, Mech->name());
  }
  // One Decision record per stream step (every consult), of which exactly
  // the accepted changes carry B = 1.
  EXPECT_EQ(DecisionRecords, Steps);
  EXPECT_EQ(AcceptedRecords, Result.Decisions.size());
}

static std::string caseName(
    const ::testing::TestParamInfo<ConformanceCase> &Info) {
  std::string Name = Info.param.decisionsFile();
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Golden, MechanismConformance,
                         ::testing::ValuesIn(conformanceCases()),
                         caseName);
