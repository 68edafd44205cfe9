//===- core/Types.cpp - Fundamental DoPE types -----------------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Types.h"

#include "support/Compiler.h"

using namespace dope;

std::string dope::toString(TaskStatus Status) {
  switch (Status) {
  case TaskStatus::Executing:
    return "EXECUTING";
  case TaskStatus::Suspended:
    return "SUSPENDED";
  case TaskStatus::Finished:
    return "FINISHED";
  case TaskStatus::Failed:
    return "FAILED";
  }
  DOPE_UNREACHABLE("invalid TaskStatus");
}

std::string dope::toString(TaskKind Kind) {
  switch (Kind) {
  case TaskKind::Sequential:
    return "SEQ";
  case TaskKind::Parallel:
    return "PAR";
  }
  DOPE_UNREACHABLE("invalid TaskKind");
}

std::string dope::toString(ParKind Kind) {
  switch (Kind) {
  case ParKind::Seq:
    return "SEQ";
  case ParKind::DoAll:
    return "DOALL";
  case ParKind::Pipe:
    return "PIPE";
  }
  DOPE_UNREACHABLE("invalid ParKind");
}

std::string dope::toString(const Dop &D) {
  std::string Out = "(";
  Out += std::to_string(D.Extent);
  Out += ", ";
  Out += toString(D.Kind);
  Out += ')';
  return Out;
}
