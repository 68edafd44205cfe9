//===- tools/dope_lint/CallGraph.h - Whole-program symbol graph -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocedural layer under dope_lint (DESIGN.md §12): a
/// whole-program symbol + call-graph index built from the same
/// token stream the per-body checks consume. It owns
///
///   * scope collection — every function/lambda body in a file, with
///     its enclosing class (or out-of-line `X::` qualifier), DOPE_HOT /
///     DOPE_COLD / virtual markers, and DOPE_REQUIRES capabilities;
///   * hot-path impurity classification — the lock / allocation /
///     blocking-wait / container-growth detectors shared verbatim with
///     HP001/HP002 so direct and transitive findings never disagree;
///   * name-based call edges with conservative resolution: a callee
///     name is resolved to a definition only when it is unambiguous
///     (or disambiguated by the caller's class), mirroring HP003's
///     ambiguity-exemption precedent — never guessed;
///   * the atomics index the MO checks ride: every `std::atomic<T>`
///     member/global, class-qualified, with the set of memory orders
///     its operations use across the whole scanned set.
///
/// Everything here is lexical, deliberately: the graph — and every
/// finding derived from it — is a pure function of the token stream.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TOOLS_LINT_CALLGRAPH_H
#define DOPE_TOOLS_LINT_CALLGRAPH_H

#include "Lexer.h"

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dopelint {

struct FileTokens; // Checks.h

//===----------------------------------------------------------------------===//
// Token helpers (shared by Checks.cpp / CallGraph.cpp / LockGraph.cpp)
//===----------------------------------------------------------------------===//

inline bool isPunct(const Token &T, const char *P) {
  return T.Kind == TokKind::Punct && T.Text == P;
}
inline bool isIdent(const Token &T, const char *S) {
  return T.Kind == TokKind::Ident && T.Text == S;
}

/// Index of the balanced closing token for the opener at \p Open, or
/// T.size() when unbalanced.
size_t matchForward(const std::vector<Token> &T, size_t Open,
                    const char *OpenP, const char *CloseP);

/// Keywords that look like calls (`if (`, `sizeof (`, ...) and must not
/// become scope candidates or call edges.
bool isKeywordNoCall(const std::string &S);

/// Basename of \p Path without its extension — the qualifier for
/// file-scope symbols ("Trace" for src/support/Trace.cpp).
std::string fileStem(const std::string &Path);

/// Member names that are primitive operations on atomics / futexes /
/// condition variables (`X.load(...)`, `CV.notify_one()`), never calls
/// into project code. Resolving `Bottom.load()` to some class's
/// `load()` method by name uniqueness would fabricate call edges, so
/// member-prefixed occurrences of these names are excluded from the
/// graph (HP003 precedent: never guess).
bool isPrimitiveMemberOp(const std::string &S);

/// Innermost `class`/`struct`/`union` body enclosing a token, for
/// class-qualifying member symbols (functions, mutexes, atomics).
class ClassRegions {
public:
  explicit ClassRegions(const std::vector<Token> &T);
  /// The innermost region's class name, or empty at file scope.
  std::string enclosing(size_t Idx) const;

private:
  struct Region {
    std::string Name;
    size_t Begin, End;
  };
  std::vector<Region> Regions;
};

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

/// One function (or lambda) body found in a file.
struct Scope {
  std::string Name; ///< Bare name; "<lambda>" for lambdas.
  /// Enclosing class/struct, or the `X` of an out-of-line `X::name`
  /// definition; empty at file scope. Used to class-qualify symbols.
  std::string Qual;
  bool Hot = false;
  bool Cold = false;    ///< DOPE_COLD in the header.
  bool Virtual = false; ///< `virtual` or `override`/`final` in the header.
  unsigned Line = 0;
  /// Token indices of the header parameter list (between the header's
  /// parens) — AP001 finds `TaskRuntime &RT` parameters here.
  std::vector<size_t> HeaderToks;
  /// Token indices of the direct body, excluding nested scopes'
  /// bodies. The HP/AP checks are *direct-body* checks by design: a
  /// nested lambda is its own scope with its own annotations.
  std::vector<size_t> OwnToks;
  /// Capabilities named by DOPE_REQUIRES(...) in the specifier tail:
  /// locks the caller must hold on entry. LK001 treats them as held.
  std::vector<std::string> RequiresCaps;
};

/// Collects every function/lambda scope in \p T (two passes: header
/// discovery, then innermost-scope token attribution).
std::vector<Scope> collectScopes(const std::vector<Token> &T);

//===----------------------------------------------------------------------===//
// Hot-path impurities
//===----------------------------------------------------------------------===//

enum class ImpurityKind { Lock, Alloc, Blocking, Growth };

/// "a lock" / "an allocation" / "a blocking wait" / "container growth".
const char *impurityNoun(ImpurityKind K);

struct Impurity {
  ImpurityKind Kind = ImpurityKind::Lock;
  std::string Detail; ///< Offending token ("lock_guard", "wait_for", ...).
  unsigned Line = 0;
};

/// Classifies the token at \p Idx as a hot-path impurity, using exactly
/// the detectors HP001/HP002 report on (member-call prefix rules
/// included). Returns nullopt for pure tokens.
std::optional<Impurity> classifyImpurity(const std::vector<Token> &T,
                                         size_t Idx);

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

struct CallSite {
  std::string Callee;
  unsigned Line = 0;
};

/// One function definition in the scanned set.
struct FnNode {
  const FileTokens *File = nullptr;
  const Scope *Def = nullptr; ///< Owned by CallGraph's scope cache.
  std::vector<Impurity> Impurities; ///< Direct-body impurities.
  std::vector<CallSite> Calls;      ///< Direct-body call sites, in order.
};

/// Whole-program call graph over every scanned file. Scopes are
/// collected once per file and cached — Checks.cpp reuses the cache so
/// the per-body and interprocedural checks see the same scopes.
class CallGraph {
public:
  explicit CallGraph(const std::vector<FileTokens> &Files);

  const std::vector<FnNode> &nodes() const { return Nodes; }

  /// The cached scopes of \p File (same order collectScopes returns).
  const std::vector<Scope> &scopesOf(const FileTokens &File) const;

  /// Resolves \p Callee to a definition: an exact match on the caller's
  /// class wins, a unique global definition is accepted, anything
  /// ambiguous returns null (HP003 precedent: exempt, don't guess).
  /// \p Self excludes the caller's own node so `X::f -> f` recursion
  /// and wrapper methods (`Outer::wakeAll -> Inner.wakeAll()`) resolve
  /// past themselves.
  const FnNode *resolve(const std::string &Callee, const std::string &FromQual,
                        const FnNode *Self = nullptr) const;

private:
  std::map<const FileTokens *, std::vector<Scope>> ScopeCache;
  std::vector<FnNode> Nodes;
  std::map<std::string, std::vector<size_t>> ByName;
};

//===----------------------------------------------------------------------===//
// Atomics index (MO001 / MO002)
//===----------------------------------------------------------------------===//

/// One member-function operation on an indexed atomic.
struct AtomicOp {
  std::string Key;    ///< Class-qualified atomic name ("SpscRing::HeadIndex").
  std::string Member; ///< Bare atomic name for diagnostics.
  std::string Op;     ///< "load", "store", "compare_exchange_strong", ...
  const FileTokens *File = nullptr;
  unsigned Line = 0;
  const Scope *Enclosing = nullptr; ///< Null for ctor-init-list sites.
  /// Success-path order ("relaxed", "acquire", "release", "acq_rel",
  /// "seq_cst"); a no-argument op defaults to seq_cst.
  std::string Order;
  /// CAS only: the explicit failure order, empty when single-order.
  std::string FailOrder;
};

/// Scans every file for `std::atomic<T> Name` declarations and the
/// member operations on them, resolving receivers the same way the
/// call graph resolves callees (unique name, else caller-class match).
/// Identifier order aliases are folded by suffix: an identifier ending
/// in "Relaxed"/"Acquire"/"Release"/"AcqRel"/"SeqCst" counts as that
/// order (an alias such as detail::QueueRelaxed counts as relaxed).
std::vector<AtomicOp> collectAtomicOps(const std::vector<FileTokens> &Files,
                                       const CallGraph &CG);

} // namespace dopelint

#endif // DOPE_TOOLS_LINT_CALLGRAPH_H
