//===- tests/ReferenceTraceReader.h - DOM-based trace JSONL reader -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace JSONL readers as they were before the shared line parser:
/// every line becomes a JsonValue DOM and the record's fields are copied
/// out of it. The reader fuzz suite runs these as the oracle that
/// readTraceJsonl and readTraceJsonlLenient must match byte for byte.
///
/// One rule differs from that code, in both readers: a `tid` that is not
/// an integer in [0, 2^32) makes the line malformed. The old code cast
/// such a value to uint32_t, which is undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TESTS_REFERENCETRACEREADER_H
#define DOPE_TESTS_REFERENCETRACEREADER_H

#include "support/Json.h"
#include "support/Trace.h"

#include <cmath>
#include <istream>
#include <optional>
#include <string>
#include <vector>

namespace dope {
namespace reference {

inline bool tidInRange(double Tid) {
  return Tid >= 0.0 && Tid < 4294967296.0 && Tid == std::floor(Tid);
}

inline constexpr const char *BadTid = "tid is not an integer in [0, 2^32)";

inline std::optional<std::vector<TraceRecord>>
readTraceJsonl(std::istream &IS, std::string *Error = nullptr) {
  std::vector<TraceRecord> Out;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string ParseError;
    std::optional<JsonValue> V = JsonValue::parse(Line, &ParseError);
    if (!V || !V->isObject()) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": " +
                 (ParseError.empty() ? "not an object" : ParseError);
      return std::nullopt;
    }
    std::optional<TraceKind> Kind =
        traceKindFromString(V->getString("kind"));
    if (!Kind) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": unknown kind '" +
                 V->getString("kind") + "'";
      return std::nullopt;
    }
    if (!tidInRange(V->getNumber("tid"))) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": " + BadTid;
      return std::nullopt;
    }
    TraceRecord R;
    R.Time = V->getNumber("t");
    R.Kind = *Kind;
    R.Tid = static_cast<uint32_t>(V->getNumber("tid"));
    R.Name = V->getString("name");
    R.A = V->getNumber("a");
    R.B = V->getNumber("b");
    R.Detail = V->getString("detail");
    Out.push_back(std::move(R));
  }
  return Out;
}

inline std::vector<TraceRecord>
readTraceJsonlLenient(std::istream &IS, TraceReadStats *Stats = nullptr) {
  std::vector<TraceRecord> Out;
  TraceReadStats Local;
  std::string Line;
  uint64_t LineNo = 0;
  auto Skip = [&](std::string Why) {
    if (Local.Skipped == 0) {
      Local.FirstSkippedLine = LineNo;
      Local.FirstError = std::move(Why);
    }
    ++Local.Skipped;
  };
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string ParseError;
    std::optional<JsonValue> V = JsonValue::parse(Line, &ParseError);
    if (!V || !V->isObject()) {
      Skip(ParseError.empty() ? "not an object" : ParseError);
      continue;
    }
    std::optional<TraceKind> Kind = traceKindFromString(V->getString("kind"));
    if (!Kind) {
      Skip("unknown kind '" + V->getString("kind") + "'");
      continue;
    }
    if (!tidInRange(V->getNumber("tid"))) {
      Skip(BadTid);
      continue;
    }
    TraceRecord R;
    R.Time = V->getNumber("t");
    R.Kind = *Kind;
    R.Tid = static_cast<uint32_t>(V->getNumber("tid"));
    R.Name = V->getString("name");
    R.A = V->getNumber("a");
    R.B = V->getNumber("b");
    R.Detail = V->getString("detail");
    ++Local.Parsed;
    Out.push_back(std::move(R));
  }
  if (Stats)
    *Stats = std::move(Local);
  return Out;
}

} // namespace reference
} // namespace dope

#endif // DOPE_TESTS_REFERENCETRACEREADER_H
