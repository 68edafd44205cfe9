//===- tests/LintToolTest.cpp - dope_lint conformance suite ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Drives the dope_lint binary end to end (ctest label: lint):
//  - every check ID reproduces its golden diagnostic on a known-bad
//    fixture (tests/lint/fixtures -> tests/lint/expected),
//  - the clean and suppression fixtures stay silent,
//  - the tool reports zero findings over the repository's own src/
//    (via the exported compile_commands.json),
//  - a seeded regression — re-introducing a raw system_clock read into
//    a mechanism — is caught,
//  - JSON output parses and the check table lists every ID.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace fs = std::filesystem;

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs the lint binary with \p Args, capturing stdout.
RunResult runLint(const std::string &Args) {
  RunResult R;
  std::string Cmd = std::string(DOPE_LINT_BIN) + " " + Args + " 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P) {
    R.Output = "<popen failed>";
    return R;
  }
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), P)) > 0)
    R.Output.append(Buf.data(), N);
  int Status = pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string readFile(const fs::path &Path) {
  std::ifstream IS(Path);
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

std::string fixture(const std::string &Name) {
  return std::string(DOPE_LINT_FIXTURES) + "/" + Name + ".cpp";
}

std::string expected(const std::string &Name) {
  return std::string(DOPE_LINT_FIXTURES) + "/../expected/" + Name + ".txt";
}

/// Golden comparison for one fixture: exact diagnostics, exact exit
/// code (1 when the golden lists findings, 0 when it is empty).
void checkGolden(const std::string &Name) {
  RunResult R = runLint("--basenames --quiet " + fixture(Name));
  std::string Want = readFile(expected(Name));
  EXPECT_EQ(R.Output, Want) << "fixture " << Name
                            << " diverged from its golden diagnostics";
  EXPECT_EQ(R.ExitCode, Want.empty() ? 0 : 1) << "fixture " << Name;
}

} // namespace

TEST(LintGolden, DeterminismClock) { checkGolden("bad_clock"); }
TEST(LintGolden, DeterminismRandom) { checkGolden("bad_random"); }
TEST(LintGolden, HotPathLock) { checkGolden("bad_hot_lock"); }
TEST(LintGolden, HotPathAlloc) { checkGolden("bad_hot_alloc"); }
TEST(LintGolden, HotPathVirtual) { checkGolden("bad_hot_virtual"); }
TEST(LintGolden, HotPathStealRuntime) { checkGolden("bad_hot_steal"); }
TEST(LintGolden, BeginEndPairing) { checkGolden("bad_pairing"); }
TEST(LintGolden, WaitBeforeDestroy) { checkGolden("bad_create_nowait"); }
TEST(LintGolden, FiniOnce) { checkGolden("bad_fini_twice"); }
TEST(LintGolden, TraceKindNames) { checkGolden("bad_trace_names"); }
TEST(LintGolden, TraceKindSwitch) { checkGolden("bad_trace_switch"); }
TEST(LintGolden, CleanFixtureSilent) { checkGolden("good_clean"); }
TEST(LintGolden, SuppressionsHonored) { checkGolden("suppressed"); }
TEST(LintGolden, HotPathTransitive) { checkGolden("bad_hot_transitive"); }
TEST(LintGolden, LockOrderCycle) { checkGolden("bad_lock_cycle"); }
TEST(LintGolden, LockAcrossBlocking) { checkGolden("bad_lock_blocking"); }
TEST(LintGolden, AtomicOrderMix) { checkGolden("bad_atomic_mixed"); }
TEST(LintGolden, CasOrderSplit) { checkGolden("bad_cas_mixed"); }
TEST(LintGolden, MemoryOrderProofsHonored) { checkGolden("mo_proofed"); }

/// The transitive fixture is exactly the case the per-body HP checks
/// cannot see: the hot body is pure, so HP001 must stay silent while
/// HP004 reports the chain through the intermediate callee.
TEST(LintTool, TransitiveImpurityNeedsHp004) {
  RunResult R = runLint("--basenames --quiet " +
                        fixture("bad_hot_transitive"));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_EQ(R.Output.find("HP001"), std::string::npos)
      << "HP001 fired on a pure hot body:\n"
      << R.Output;
  EXPECT_NE(R.Output.find("HP004"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("step -> settle -> awaitResult"),
            std::string::npos)
      << "chain mis-reported:\n"
      << R.Output;
}

/// --explain appends one indented note per chain frame under the
/// finding, so a reader can walk the call path without opening --json.
TEST(LintTool, ExplainPrintsChainFrames) {
  RunResult R = runLint("--basenames --quiet --explain " +
                        fixture("bad_hot_transitive"));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("note: #1 step"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("note: #2 settle"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("note: #3 awaitResult"), std::string::npos)
      << R.Output;
}

/// The JSON form of an interprocedural finding carries the full chain as
/// structured frames, so CI consumers can render the path.
TEST(LintTool, JsonCarriesHp004Chain) {
  RunResult R = runLint("--json --basenames " +
                        fixture("bad_hot_transitive"));
  EXPECT_EQ(R.ExitCode, 1);
  std::string Error;
  std::optional<dope::JsonValue> Doc =
      dope::JsonValue::parse(R.Output, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const dope::JsonValue *Findings = Doc->get("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_EQ(Findings->size(), 1u);
  const dope::JsonValue &F = Findings->at(0);
  EXPECT_EQ(F.getString("check"), "HP004");
  const dope::JsonValue *Chain = F.get("chain");
  ASSERT_NE(Chain, nullptr);
  ASSERT_TRUE(Chain->isArray());
  ASSERT_EQ(Chain->size(), 3u);
  const char *Symbols[] = {"step", "settle", "awaitResult"};
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Chain->at(I).getString("symbol"), Symbols[I]);
    EXPECT_EQ(Chain->at(I).getString("file"), "bad_hot_transitive.cpp");
    EXPECT_GT(Chain->at(I).getNumber("line"), 0.0);
  }
}

/// Every check ID the goldens exercise must appear in --list-checks, so
/// the fixture suite and the check table cannot drift apart.
TEST(LintTool, ListChecksCoversAllIds) {
  RunResult R = runLint("--list-checks");
  EXPECT_EQ(R.ExitCode, 0);
  for (const char *Id :
       {"DL001", "DL002", "HP001", "HP002", "HP003", "HP004", "AP001",
        "AP002", "AP003", "TS001", "TS002", "LK001", "LK002", "MO001",
        "MO002"})
    EXPECT_NE(R.Output.find(Id), std::string::npos) << Id;
}

//===----------------------------------------------------------------------===//
// Exit-code contract: 0 = clean, 1 = findings, 2 = usage or I/O error.
// One regression test per code so the CI gate semantics cannot drift.
//===----------------------------------------------------------------------===//

TEST(LintExitCode, CleanScanReturnsZero) {
  RunResult R = runLint("--quiet " + fixture("good_clean"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(LintExitCode, FindingsReturnOne) {
  RunResult R = runLint("--quiet " + fixture("bad_clock"));
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(LintExitCode, UnknownFlagReturnsTwo) {
  RunResult R = runLint("--no-such-flag " + fixture("good_clean"));
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(LintExitCode, MissingFileReturnsTwo) {
  RunResult R = runLint("/nonexistent/dope_lint_input.cpp");
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(LintExitCode, UnknownAllowIdReturnsTwo) {
  RunResult R = runLint("--allow XX999 " + fixture("good_clean"));
  EXPECT_EQ(R.ExitCode, 2);
}

/// The repository's own sources must satisfy every contract: scan the
/// TUs of the exported compilation database plus the headers under
/// src/ and require zero findings.
TEST(LintTool, SrcTreeIsClean) {
  ASSERT_TRUE(fs::exists(DOPE_COMPDB))
      << "compile_commands.json missing — configure exports it";
  RunResult R = runLint(std::string("--compdb ") + DOPE_COMPDB + " --root " +
                        DOPE_SOURCE_ROOT + "/src --quiet");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "") << "src/ must stay lint-clean";
}

/// The concurrency kernels get their own clean-scan assertions: the
/// queue subsystem is where the memory-order audit and lock checks bite
/// hardest, and the analysis subsystem hosts the what-if machinery the
/// interprocedural traversal walks through.
TEST(LintTool, QueueSubtreeIsClean) {
  ASSERT_TRUE(fs::exists(DOPE_COMPDB));
  RunResult R = runLint(std::string("--compdb ") + DOPE_COMPDB + " --root " +
                        DOPE_SOURCE_ROOT + "/src/queue --quiet");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "") << "src/queue must stay lint-clean";
}

TEST(LintTool, AnalysisSubtreeIsClean) {
  ASSERT_TRUE(fs::exists(DOPE_COMPDB));
  RunResult R = runLint(std::string("--compdb ") + DOPE_COMPDB + " --root " +
                        DOPE_SOURCE_ROOT + "/src/analysis --quiet");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "") << "src/analysis must stay lint-clean";
}

/// Seeded regression: re-introduce a raw wall-clock read into a copy of
/// a mechanism translation unit and require DL001 to fire on the
/// injected line. This is the drift the determinism contract exists to
/// catch — a mechanism that reads the wall clock diverges under replay.
TEST(LintTool, SeededClockRegressionCaught) {
  fs::path Mechanism;
  for (const fs::directory_entry &E :
       fs::directory_iterator(std::string(DOPE_SOURCE_ROOT) +
                              "/src/mechanisms")) {
    if (E.path().extension() == ".cpp") {
      Mechanism = E.path();
      break;
    }
  }
  ASSERT_FALSE(Mechanism.empty()) << "no mechanism sources found";

  fs::path Tmp = fs::temp_directory_path() / "dope_lint_seeded.cpp";
  std::string Source = readFile(Mechanism);
  unsigned LineCount =
      static_cast<unsigned>(std::count(Source.begin(), Source.end(), '\n'));
  Source += "\nstatic double dopeLintSeededDrift() {\n"
            "  return std::chrono::duration<double>(\n"
            "             std::chrono::system_clock::now()"
            ".time_since_epoch())\n"
            "      .count();\n"
            "}\n";
  {
    std::ofstream OS(Tmp);
    OS << Source;
  }
  const unsigned InjectedLine = LineCount + 4; // system_clock's line

  RunResult R = runLint(Tmp.string());
  fs::remove(Tmp);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("DL001"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find(":" + std::to_string(InjectedLine) + ":"),
            std::string::npos)
      << "finding not on the injected line\n"
      << R.Output;
}

/// --json output must parse and carry the same findings as the text
/// form, so CI consumers can rely on the schema.
TEST(LintTool, JsonOutputParses) {
  RunResult R = runLint("--json --basenames " + fixture("bad_clock"));
  EXPECT_EQ(R.ExitCode, 1);
  std::string Error;
  std::optional<dope::JsonValue> Doc = dope::JsonValue::parse(R.Output,
                                                              &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const dope::JsonValue *Findings = Doc->get("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  ASSERT_EQ(Findings->size(), 2u);
  for (size_t I = 0; I != Findings->size(); ++I) {
    const dope::JsonValue &F = Findings->at(I);
    EXPECT_EQ(F.getString("check"), "DL001");
    EXPECT_EQ(F.getString("severity"), "error");
    EXPECT_EQ(F.getString("file"), "bad_clock.cpp");
    EXPECT_GT(F.getNumber("line"), 0.0);
    EXPECT_FALSE(F.getString("message").empty());
  }
}

/// --allow disables a check wholesale.
TEST(LintTool, AllowDisablesCheck) {
  RunResult R = runLint("--quiet --allow DL001 " + fixture("bad_clock"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "");
}
