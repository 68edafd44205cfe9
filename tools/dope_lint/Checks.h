//===- tools/dope_lint/Checks.h - DoPE contract checks ---------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DoPE-specific contract checks (DESIGN.md §12). Each check has a
/// stable ID and severity and runs over the token stream of Lexer.h:
///
///   DL001 determinism-clock    raw std::chrono clock reads outside
///                              support/Clock.h
///   DL002 determinism-random   rand()/random_device/mt19937 outside
///                              support/Random
///   HP001 hot-path-lock        DOPE_HOT function body takes a mutex
///   HP002 hot-path-alloc       DOPE_HOT function body allocates
///   HP003 hot-path-virtual     DOPE_HOT function body calls a
///                              non-DOPE_HOT virtual
///   AP001 begin-end-pairing    Task begin/end imbalance on one
///                              TaskRuntime within one function
///   AP002 wait-before-destroy  Dope::create without wait/waitFor/
///                              destroy in the same function
///   AP003 fini-once            FiniCB registered twice for one
///                              descriptor in one function
///   TS001 trace-kind-names     TraceKind enumerator count != KindNames
///                              serializer entries
///   TS002 trace-kind-switch    defaultless switch over TraceKind not
///                              covering every enumerator
///
/// Interprocedural checks (CallGraph.h / LockGraph.h):
///
///   HP004 hot-path-transitive  DOPE_HOT body *reaches* a lock /
///                              allocation / blocking wait / container
///                              growth through a call chain (stops at
///                              DOPE_COLD and DOPE_HOT callees)
///   LK001 lock-order-cycle     cycle in the lock-acquisition graph —
///                              a potential deadlock
///   LK002 lock-across-blocking lock held across a blocking call
///   MO001 atomic-order-mix     relaxed op on an atomic that elsewhere
///                              uses acquire/release/seq_cst, with no
///                              fence in the function and no mo-proof
///   MO002 cas-order-split      compare_exchange with differing
///                              success/failure orders, no mo-proof
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TOOLS_LINT_CHECKS_H
#define DOPE_TOOLS_LINT_CHECKS_H

#include "Lexer.h"

#include <set>
#include <string>
#include <vector>

namespace dopelint {

struct CheckInfo {
  const char *Id;
  const char *Severity; ///< "error" or "warning".
  const char *Name;
  const char *Description;
};

/// The full check table, in ID order.
const std::vector<CheckInfo> &allChecks();

/// One step of interprocedural evidence: a function (or lock edge) and
/// the site that links it into the chain.
struct ChainFrame {
  std::string Symbol; ///< Function name or "LockA -> LockB" edge.
  std::string File;
  unsigned Line = 0;
};

struct Finding {
  std::string CheckId;
  std::string Severity;
  std::string File;
  unsigned Line = 0;
  std::string Message;
  /// Interprocedural evidence (HP004 call chains, LK001 witness edges,
  /// LK002 blocking paths). Empty for per-body findings. Printed by
  /// --explain and carried in the JSON `chain` array.
  std::vector<ChainFrame> Chain;
};

/// One scanned file: path plus its token stream.
struct FileTokens {
  std::string Path;
  LexOutput Lex;
};

/// Cross-file symbol knowledge collected in pass 1. HP003 needs the
/// global virtual/hot sets (a call in A.cpp dispatches to a virtual
/// declared in B.h); TS001/TS002 need the TraceKind schema.
struct GlobalIndex {
  std::set<std::string> HotFunctions;
  std::set<std::string> VirtualFunctions;
  /// Names with at least one non-virtual function *definition* anywhere
  /// in the scanned set. A name-based virtual-call check cannot tell
  /// Task::name() (non-virtual) from Mechanism::name() (virtual), so
  /// ambiguous names are exempted from HP003 rather than guessed at.
  std::set<std::string> NonVirtualDefs;
  std::vector<std::string> TraceKindEnumerators;
  int KindNamesStrings = -1; ///< -1 while the serializer table is unseen.
  std::string KindNamesFile;
  unsigned KindNamesLine = 0;
};

GlobalIndex buildIndex(const std::vector<FileTokens> &Files);

struct CheckOptions {
  /// Check IDs disabled via --allow.
  std::set<std::string> Disabled;
};

/// Runs every enabled check over \p File. Findings suppressed by
/// `// dope-lint: allow(ID)` on the finding's line (or the line above)
/// are dropped.
std::vector<Finding> runChecks(const FileTokens &File,
                               const GlobalIndex &Index,
                               const CheckOptions &Opts);

/// Runs the whole-program checks (HP004, LK001/LK002, MO001/MO002)
/// over the full scanned set. --allow and `// dope-lint: allow(ID)` /
/// `mo-proof(...)` markers are honored exactly as in runChecks.
std::vector<Finding> runGlobalChecks(const std::vector<FileTokens> &Files,
                                     const GlobalIndex &Index,
                                     const CheckOptions &Opts);

/// Shared suppression lookup: `// dope-lint: allow(ID)` on the
/// finding's line or the line above.
bool isSuppressed(const FileTokens &File, const std::string &Id,
                  unsigned Line);

/// True when \p Path is an allowed home for raw clock / RNG primitives
/// (support/Clock.h, support/Random.*).
bool isDeterminismWhitelisted(const std::string &Path);

} // namespace dopelint

#endif // DOPE_TOOLS_LINT_CHECKS_H
