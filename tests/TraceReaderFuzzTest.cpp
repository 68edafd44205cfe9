//===- tests/TraceReaderFuzzTest.cpp - Differential trace-reader fuzzing --===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing of the trace JSONL readers. readTraceJsonl and
/// readTraceJsonlLenient must agree with the DOM-based reference readers
/// of ReferenceTraceReader.h on every TraceRecord-format golden and on
/// seeded mutations of its lines: records bit for bit (NaN payloads
/// included), strict error strings, and every field of TraceReadStats.
/// The mutations aim at the edges of the readers' writer-layout fast
/// path, where any departure must fall back to the general JSON parse.
///
/// Runs under the `fuzz` label; reproduce a failure with
/// DOPE_TEST_SEED=<seed>.
///
//===----------------------------------------------------------------------===//

#include "ReferenceTraceReader.h"
#include "TestHelpers.h"

#include "support/Json.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

bool sameBits(double L, double R) {
  return std::bit_cast<uint64_t>(L) == std::bit_cast<uint64_t>(R);
}

bool sameRecord(const TraceRecord &L, const TraceRecord &R) {
  return sameBits(L.Time, R.Time) && L.Kind == R.Kind && L.Tid == R.Tid &&
         L.Name == R.Name && sameBits(L.A, R.A) && sameBits(L.B, R.B) &&
         L.Detail == R.Detail;
}

bool sameRecords(const std::vector<TraceRecord> &L,
                 const std::vector<TraceRecord> &R) {
  return std::equal(L.begin(), L.end(), R.begin(), R.end(), sameRecord);
}

/// Runs both readers and both reference readers over \p Text; returns a
/// description of the first disagreement, or an empty string.
std::string compareReaders(const std::string &Text) {
  std::string WantError, GotError;
  std::istringstream WantIS(Text), GotIS(Text);
  const std::optional<std::vector<TraceRecord>> Want =
      reference::readTraceJsonl(WantIS, &WantError);
  const std::optional<std::vector<TraceRecord>> Got =
      readTraceJsonl(GotIS, &GotError);
  if (Want.has_value() != Got.has_value())
    return "strict: reference " +
           (Want ? std::string("accepts") : "rejects (" + WantError + ")") +
           ", reader " +
           (Got ? std::string("accepts") : "rejects (" + GotError + ")");
  if (!Want && WantError != GotError)
    return "strict errors differ: '" + WantError + "' vs '" + GotError + "'";
  if (Want && !sameRecords(*Want, *Got))
    return "strict records differ";

  TraceReadStats WantStats, GotStats;
  std::istringstream WantLenientIS(Text), GotLenientIS(Text);
  const std::vector<TraceRecord> WantLenient =
      reference::readTraceJsonlLenient(WantLenientIS, &WantStats);
  const std::vector<TraceRecord> GotLenient =
      readTraceJsonlLenient(GotLenientIS, &GotStats);
  if (!sameRecords(WantLenient, GotLenient))
    return "lenient records differ";
  if (WantStats.Parsed != GotStats.Parsed ||
      WantStats.Skipped != GotStats.Skipped ||
      WantStats.FirstSkippedLine != GotStats.FirstSkippedLine ||
      WantStats.FirstError != GotStats.FirstError)
    return "lenient stats differ: reference " +
           std::to_string(WantStats.Parsed) + "/" +
           std::to_string(WantStats.Skipped) + " first " +
           std::to_string(WantStats.FirstSkippedLine) + " '" +
           WantStats.FirstError + "', reader " +
           std::to_string(GotStats.Parsed) + "/" +
           std::to_string(GotStats.Skipped) + " first " +
           std::to_string(GotStats.FirstSkippedLine) + " '" +
           GotStats.FirstError + "'";
  return {};
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream IS(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(IS),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream IS(Text);
  for (std::string Line; std::getline(IS, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// The goldens in TraceRecord format: every JSONL file the strict
/// reference reader accepts. (The decision logs and feature streams
/// carry no `kind` the trace schema knows.)
std::vector<std::filesystem::path> traceGoldens() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(DOPE_GOLDEN_DIR))
    if (Entry.path().extension() == ".jsonl") {
      std::istringstream IS(readFile(Entry.path()));
      if (reference::readTraceJsonl(IS))
        Paths.push_back(Entry.path());
    }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

/// Records at the edges of the number and string formats, as
/// writeTraceJsonl emits them.
std::string edgeRecordsJsonl() {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Values[] = {-0.0,     1e15,    -1e15,  999999999999999.0,
                           9007199254740992.0, 0.1, -2.5e-7, 1e300,
                           4.9406564584124654e-324,     Inf,  -Inf,
                           NaN,      -NaN,    4294967295.0};
  std::vector<TraceRecord> Records;
  uint32_t Tid = 0;
  for (double V : Values) {
    TraceRecord R;
    R.Time = V;
    R.Kind = TraceKind::Counter;
    R.Tid = Tid;
    Tid = Tid * 7 + 4000000000u;
    R.Name = "series";
    R.A = V;
    R.B = -V;
    Records.push_back(R);
  }
  TraceRecord Escaped;
  Escaped.Kind = TraceKind::Fault;
  Escaped.Name = "quote\" back\\slash";
  Escaped.Detail = "line\nbreak\ttab\x01 ctl \xc3\xa9";
  Records.push_back(Escaped);
  std::ostringstream OS;
  writeTraceJsonl(Records, OS);
  return OS.str();
}

/// Seeded line mutations aimed at the fast path's departures.
class LineMutator {
public:
  explicit LineMutator(uint64_t Seed) : Rand(Seed) {}

  /// Applies one to three mutations to \p Line.
  std::string mutate(std::string Line, const std::string &Other) {
    const unsigned Rounds = 1 + static_cast<unsigned>(pick(3));
    for (unsigned I = 0; I != Rounds; ++I)
      Line = mutateOnce(std::move(Line), Other);
    return Line;
  }

  uint64_t BadTids = 0;

private:
  Rng Rand;

  size_t pick(size_t N) { return static_cast<size_t>(Rand.uniformInt(N)); }

  template <size_t N> const char *pickOf(const char *const (&Pool)[N]) {
    return Pool[pick(N)];
  }

  /// Offsets of the value of \p Key: [Begin, End) up to the next ',' or
  /// '}' (good enough for scalar values), or npos when absent.
  static std::pair<size_t, size_t> valueSpan(const std::string &Line,
                                             const std::string &Key) {
    const std::string Needle = "\"" + Key + "\":";
    const size_t At = Line.find(Needle);
    if (At == std::string::npos)
      return {std::string::npos, std::string::npos};
    const size_t Begin = At + Needle.size();
    size_t End = Line.find_first_of(",}", Begin);
    if (End == std::string::npos)
      End = Line.size();
    return {Begin, End};
  }

  /// Replaces the value of \p Key, or adds the member before the last
  /// '}' when absent.
  static std::string setValue(std::string Line, const std::string &Key,
                              const std::string &Value) {
    const auto [Begin, End] = valueSpan(Line, Key);
    if (Begin != std::string::npos)
      return Line.replace(Begin, End - Begin, Value);
    const std::string Member = ",\"" + Key + "\":" + Value;
    const size_t Close = Line.rfind('}');
    return Close == std::string::npos ? Line + Member
                                      : Line.insert(Close, Member);
  }

  std::string randomNumber() {
    char Buf[40];
    switch (pick(4)) {
    case 0: // Any bit pattern: subnormals, NaN payloads, infinities.
      std::snprintf(Buf, sizeof(Buf), "%.17g",
                    std::bit_cast<double>(Rand.next()));
      break;
    case 1:
      std::snprintf(Buf, sizeof(Buf), "%.*g", 1 + static_cast<int>(pick(17)),
                    Rand.uniform(-1e6, 1e6));
      break;
    case 2:
      std::snprintf(Buf, sizeof(Buf), "%" PRId64,
                    static_cast<int64_t>(Rand.next() >> pick(64)));
      break;
    default:
      std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Rand.next() >> pick(64));
      break;
    }
    return Buf;
  }

  std::string mutateOnce(std::string Line, const std::string &Other) {
    static const char *const Numbers[] = {
        "+1",     "0x10",     "1e400",    "-1e400",     "1e-400",
        "nan",    "-nan",     "NaN",      "inf",        "-inf",
        "infinity", "nan(123)", "-0",     "0",          "1.",
        ".5",     "-.5",      "00012",    "1e",         "-",
        "1E5",    "1e+5",     "4.9406564584124654e-324",
        "2.4703282292062327e-324", "1.7976931348623157e308",
        "1.7976931348623159e308", "9007199254740993", " 1", "1 ",
        "true",   "null",     "\"1\"",    "[1]",        "{}"};
    static const char *const BadTidValues[] = {
        "-1",   "1e20", "nan",  "-nan",  "4294967296", "1.5", "-0.5",
        "inf",  "-inf", "1e400", "18446744073709551616", "-4294967296",
        "4294967295.5"};
    static const char *const TidValues[] = {
        "4294967295", "0", "-0", "0.0", "1e3", "7.0", "\"3\"", "null",
        "true", "00"};
    static const char *const Bytes = "\"\\,:{}[] \t-+.e0123456789anx";
    static const char *const Escapes[] = {"\\\"", "\\\\", "\\n", "\\u0041",
                                          "\\/", "\\t", "\\u00e9", "\\q",
                                          "\\u12", "\\"};
    static const char *const Keys[] = {"t", "kind", "tid", "name",
                                       "a", "b",    "detail"};
    static const char *const AnyValues[] = {
        "1", "-2.5", "\"log\"", "\"begin\"", "\"x\"", "null", "true",
        "[1,2]", "{\"k\":[{}]}", "\"\""};
    static const char *const Members[] = {
        "\"zz\":1", "\"extra\":\"v\"", "\"nested\":{\"x\":[1,{\"y\":null}]}",
        "\"flag\":true", "\"T\":1", "\"\":0"};

    switch (pick(12)) {
    case 0: { // Byte flip.
      if (Line.empty())
        return Line;
      const size_t At = pick(Line.size());
      Line[At] = pick(3) == 0 ? static_cast<char>(Rand.next())
                              : Bytes[pick(std::char_traits<char>::length(
                                    Bytes))];
      return Line;
    }
    case 1: // Truncation.
      Line.resize(pick(Line.size() + 1));
      return Line;
    case 2: { // Reordered keys.
      std::optional<JsonValue> V = JsonValue::parse(Line);
      if (!V || !V->isObject() || V->size() < 2)
        return Line;
      std::vector<std::pair<std::string, JsonValue>> Shuffled = V->members();
      for (size_t I = Shuffled.size(); I > 1; --I)
        std::swap(Shuffled[I - 1], Shuffled[pick(I)]);
      JsonValue Out = JsonValue::makeObject();
      for (auto &[K, M] : Shuffled)
        Out.set(K, M);
      return Out.dump();
    }
    case 3: { // Inserted whitespace.
      static const char *const Spaces[] = {" ", "\t", "\r", "  ", "\n "};
      Line.insert(pick(Line.size() + 1), pickOf(Spaces));
      return Line;
    }
    case 4: { // An escape inside a string value.
      const char *Key = pick(2) ? "name" : (pick(2) ? "kind" : "detail");
      const std::string Needle = std::string("\"") + Key + "\":\"";
      const size_t At = Line.find(Needle);
      if (At == std::string::npos)
        return Line;
      const size_t Begin = At + Needle.size();
      const size_t End = Line.find('"', Begin);
      const size_t Span = (End == std::string::npos ? Line.size() : End) -
                          Begin;
      Line.insert(Begin + pick(Span + 1), pickOf(Escapes));
      return Line;
    }
    case 5: { // Unknown or nested member, at the front or the back.
      const std::string Member = pickOf(Members);
      if (pick(2) && !Line.empty() && Line[0] == '{')
        return Line.insert(1, Member + ",");
      const size_t Close = Line.rfind('}');
      return Close == std::string::npos ? Line + "," + Member
                                        : Line.insert(Close, "," + Member);
    }
    case 6: { // Duplicate key.
      const size_t Close = Line.rfind('}');
      const std::string Member = std::string(",\"") + pickOf(Keys) +
                                 "\":" + pickOf(AnyValues);
      return Close == std::string::npos ? Line + Member
                                        : Line.insert(Close, Member);
    }
    case 7: { // A number the writer never emits.
      static const char *const NumberKeys[] = {"t", "tid", "a", "b"};
      return setValue(std::move(Line), pickOf(NumberKeys),
                      pick(3) ? pickOf(Numbers) : randomNumber());
    }
    case 8: // A tid outside [0, 2^32) or not an integer.
      ++BadTids;
      return setValue(std::move(Line), "tid", pickOf(BadTidValues));
    case 9: // A tid at the edge, in range or mistyped.
      return setValue(std::move(Line), "tid", pickOf(TidValues));
    case 10: { // A known key removed or replaced by a mistyped value.
      const std::string Key = pickOf(Keys);
      if (pick(2))
        return setValue(std::move(Line), Key, pickOf(AnyValues));
      const size_t KeyStart = Line.find("\"" + Key + "\":");
      if (KeyStart == std::string::npos)
        return Line;
      size_t From = KeyStart, To = valueSpan(Line, Key).second;
      if (From > 0 && Line[From - 1] == ',')
        --From;
      else if (To < Line.size() && Line[To] == ',')
        ++To;
      return Line.erase(From, To - From);
    }
    default: // Trailing bytes: another line spliced on.
      return Line + (pick(2) ? Other : Other.substr(0, pick(Other.size())));
    }
  }
};

} // namespace

TEST(TraceReaderFuzz, GoldensMatchReferenceReader) {
  const std::vector<std::filesystem::path> Goldens = traceGoldens();
  // arbiter-colocation.leases.jsonl and whatif-pipeline.trace.jsonl.
  ASSERT_GE(Goldens.size(), 2u);
  for (const std::filesystem::path &Path : Goldens) {
    const std::string Text = readFile(Path);
    EXPECT_EQ(compareReaders(Text), "") << Path;
  }
  EXPECT_EQ(compareReaders(edgeRecordsJsonl()), "");
}

TEST(TraceReaderFuzz, MutatedLinesMatchReferenceReader) {
  std::vector<std::vector<std::string>> Corpus;
  for (const std::filesystem::path &Path : traceGoldens())
    Corpus.push_back(splitLines(readFile(Path)));
  Corpus.push_back(splitLines(edgeRecordsJsonl()));
  ASSERT_GE(Corpus.size(), 3u);

  const uint64_t Seed = loggedSeed(20261019);
  Rng Pick(Seed);
  LineMutator Mutator(Seed ^ 0x5eedf00dULL);
  auto AnyLine = [&]() -> const std::string & {
    const std::vector<std::string> &File = Corpus[Pick.uniformInt(Corpus.size())];
    return File[Pick.uniformInt(File.size())];
  };

  constexpr unsigned Documents = 12000;
  uint64_t Mutations = 0;
  unsigned Failures = 0;
  for (unsigned Doc = 0; Doc != Documents && Failures < 5; ++Doc) {
    std::string Text;
    const unsigned Lines = 1 + static_cast<unsigned>(Pick.uniformInt(5));
    for (unsigned L = 0; L != Lines; ++L) {
      std::string Line = AnyLine();
      if (Pick.uniformInt(3) != 0) {
        Line = Mutator.mutate(std::move(Line), AnyLine());
        ++Mutations;
      }
      Text += Line;
      if (Pick.uniformInt(8) == 0)
        Text += '\n'; // A blank line: neither parsed nor skipped.
      if (L + 1 != Lines || Pick.uniformInt(2) == 0)
        Text += '\n';
    }
    const std::string Diff = compareReaders(Text);
    if (!Diff.empty()) {
      ++Failures;
      ADD_FAILURE() << "document " << Doc << ": " << Diff << "\n" << Text;
    }
  }
  std::printf("[ FUZZ     ] %u documents, %llu mutated lines, %llu bad "
              "tids\n",
              Documents, static_cast<unsigned long long>(Mutations),
              static_cast<unsigned long long>(Mutator.BadTids));
  EXPECT_GE(Mutations, 10000u);
  EXPECT_GE(Mutator.BadTids, 500u);
}
