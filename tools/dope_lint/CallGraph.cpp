//===- tools/dope_lint/CallGraph.cpp - Whole-program symbol graph ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "CallGraph.h"

#include "Checks.h"

#include <algorithm>
#include <cstdint>

using namespace dopelint;

//===----------------------------------------------------------------------===//
// Token helpers
//===----------------------------------------------------------------------===//

size_t dopelint::matchForward(const std::vector<Token> &T, size_t Open,
                              const char *OpenP, const char *CloseP) {
  int Depth = 0;
  for (size_t I = Open; I < T.size(); ++I) {
    if (T[I].Kind == TokKind::Punct) {
      if (T[I].Text == OpenP)
        ++Depth;
      else if (T[I].Text == CloseP && --Depth == 0)
        return I;
    }
  }
  return T.size();
}

bool dopelint::isKeywordNoCall(const std::string &S) {
  static const std::set<std::string> K = {
      "if",       "while",    "for",      "switch",   "catch",
      "return",   "sizeof",   "alignof",  "decltype", "alignas",
      "assert",   "new",      "delete",   "static_assert",
      "noexcept", "defined",  "throw",    "co_return","co_await",
      "co_yield", "requires", "typeid",   "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast"};
  return K.count(S) != 0;
}

std::string dopelint::fileStem(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path
                                                : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  return Dot == std::string::npos ? Base : Base.substr(0, Dot);
}

dopelint::ClassRegions::ClassRegions(const std::vector<Token> &T) {
  for (size_t I = 0; I + 1 < T.size(); ++I) {
    if (T[I].InPP)
      continue;
    if (!isIdent(T[I], "class") && !isIdent(T[I], "struct") &&
        !isIdent(T[I], "union"))
      continue;
    if (I > 0 && (isIdent(T[I - 1], "enum") || isPunct(T[I - 1], "<")))
      continue; // enum class / template-template parameter
    // Name: first identifier past attributes / alignas.
    size_t J = I + 1;
    std::string Name;
    while (J + 1 < T.size()) {
      if (isPunct(T[J], "[")) {
        J = matchForward(T, J, "[", "]") + 1;
        continue;
      }
      if (isIdent(T[J], "alignas") && isPunct(T[J + 1], "(")) {
        J = matchForward(T, J + 1, "(", ")") + 1;
        continue;
      }
      if (T[J].Kind == TokKind::Ident) {
        Name = T[J].Text;
        ++J;
        break;
      }
      break;
    }
    if (Name.empty())
      continue;
    // Walk to the body brace; a `;` first means forward declaration.
    while (J < T.size() && !isPunct(T[J], "{") && !isPunct(T[J], ";") &&
           !isPunct(T[J], "=") && !isPunct(T[J], ")"))
      ++J;
    if (J >= T.size() || !isPunct(T[J], "{"))
      continue;
    size_t End = matchForward(T, J, "{", "}");
    Regions.push_back({Name, J, End});
  }
}

std::string dopelint::ClassRegions::enclosing(size_t Idx) const {
  std::string Best;
  size_t BestSpan = SIZE_MAX;
  for (const Region &R : Regions)
    if (R.Begin < Idx && Idx < R.End && R.End - R.Begin < BestSpan) {
      Best = R.Name;
      BestSpan = R.End - R.Begin;
    }
  return Best;
}

namespace {

/// Index of the balanced opening token for the closer at \p Close, or
/// SIZE_MAX when unbalanced.
size_t matchBackward(const std::vector<Token> &T, size_t Close,
                     const char *OpenP, const char *CloseP) {
  int Depth = 0;
  for (size_t I = Close + 1; I-- > 0;) {
    if (T[I].Kind == TokKind::Punct) {
      if (T[I].Text == CloseP)
        ++Depth;
      else if (T[I].Text == OpenP && --Depth == 0)
        return I;
    }
    if (I == 0)
      break;
  }
  return SIZE_MAX;
}

/// Token index -> innermost enclosing Scope (by direct-body
/// attribution; header tokens and ctor-init lists map to null).
class ScopeIndex {
public:
  ScopeIndex(const std::vector<Scope> &Scopes, size_t NumToks)
      : Map(NumToks, nullptr) {
    for (const Scope &S : Scopes)
      for (size_t Idx : S.OwnToks)
        if (Idx < Map.size())
          Map[Idx] = &S;
  }
  const Scope *at(size_t Idx) const {
    return Idx < Map.size() ? Map[Idx] : nullptr;
  }

private:
  std::vector<const Scope *> Map;
};

//===----------------------------------------------------------------------===//
// Scope detection
//===----------------------------------------------------------------------===//

/// Walks a constructor initializer list starting at the `:` token;
/// returns the index of the body `{` or SIZE_MAX on reject.
size_t skipCtorInit(const std::vector<Token> &T, size_t I) {
  ++I; // past ':'
  while (I < T.size()) {
    // Member (possibly qualified / templated) name.
    while (I < T.size() && !isPunct(T[I], "(") && !isPunct(T[I], "{") &&
           !isPunct(T[I], ";") && !isPunct(T[I], "}"))
      ++I;
    if (I >= T.size() || isPunct(T[I], ";") || isPunct(T[I], "}"))
      return SIZE_MAX;
    // `{` directly after the member name is a brace init; a `{` at the
    // start of an initializer position could only be the body when the
    // list has ended (handled after the group + comma logic).
    if (isPunct(T[I], "("))
      I = matchForward(T, I, "(", ")") + 1;
    else
      I = matchForward(T, I, "{", "}") + 1;
    if (I < T.size() && isPunct(T[I], "..."))
      ++I;
    if (I < T.size() && isPunct(T[I], ",")) {
      ++I;
      continue;
    }
    if (I < T.size() && isPunct(T[I], "{"))
      return I;
    return SIZE_MAX;
  }
  return SIZE_MAX;
}

/// After a candidate's closing paren at \p CloseParen, walks the
/// specifier tail (const, noexcept, override, trailing return, ctor
/// inits, annotation macros like DOPE_REQUIRES(...), ...) looking for a
/// function body. Returns the body `{` index or SIZE_MAX when the
/// construct is not a definition. Sets \p SawOverride when the tail
/// marks the function virtual and collects DOPE_REQUIRES capability
/// names into \p RequiresCaps.
size_t findBody(const std::vector<Token> &T, size_t CloseParen,
                bool &SawOverride, std::vector<std::string> &RequiresCaps) {
  size_t I = CloseParen + 1;
  while (I < T.size()) {
    const Token &Tok = T[I];
    if (isPunct(Tok, "{"))
      return I;
    if (isPunct(Tok, ";") || isPunct(Tok, "}") || isPunct(Tok, "=") ||
        isPunct(Tok, ",") || isPunct(Tok, ")"))
      return SIZE_MAX;
    if (isPunct(Tok, ":"))
      return skipCtorInit(T, I);
    if (isIdent(Tok, "override") || isIdent(Tok, "final")) {
      SawOverride = true;
      ++I;
      continue;
    }
    if (isIdent(Tok, "noexcept") || isIdent(Tok, "throw")) {
      ++I;
      if (I < T.size() && isPunct(T[I], "("))
        I = matchForward(T, I, "(", ")") + 1;
      continue;
    }
    if (isPunct(Tok, "->")) {
      // Trailing return type: anything up to the body brace.
      ++I;
      while (I < T.size() && !isPunct(T[I], "{") && !isPunct(T[I], ";") &&
             !isPunct(T[I], "}"))
        ++I;
      continue;
    }
    if (isPunct(Tok, "[")) { // attribute [[...]]
      I = matchForward(T, I, "[", "]") + 1;
      continue;
    }
    if (Tok.Kind == TokKind::Ident && I + 1 < T.size() &&
        isPunct(T[I + 1], "(")) {
      // Parenthesized specifier macro: the clang thread-safety
      // annotations (DOPE_REQUIRES(Mu), DOPE_ACQUIRE(Mu), ...) and
      // __attribute__((...)) land here. Capture REQUIRES capabilities
      // — the lock-order analysis treats them as held on entry.
      size_t MacroClose = matchForward(T, I + 1, "(", ")");
      if (MacroClose >= T.size())
        return SIZE_MAX;
      if (Tok.Text == "DOPE_REQUIRES" || Tok.Text == "DOPE_REQUIRES_SHARED")
        for (size_t K = I + 2; K < MacroClose; ++K)
          if (T[K].Kind == TokKind::Ident && T[K].Text != "this")
            RequiresCaps.push_back(T[K].Text);
      I = MacroClose + 1;
      continue;
    }
    if (Tok.Kind == TokKind::Ident || isPunct(Tok, "&") ||
        isPunct(Tok, "&&") || isPunct(Tok, "...")) {
      ++I; // const / mutable / try / ref-qualifier / macro specifier
      continue;
    }
    return SIZE_MAX;
  }
  return SIZE_MAX;
}

/// Scans backward from the candidate name for DOPE_HOT / DOPE_COLD /
/// virtual in the same declaration (bounded; stops at statement/body
/// boundaries).
void scanHeaderPrefix(const std::vector<Token> &T, size_t NameIdx, bool &Hot,
                      bool &Cold, bool &Virtual) {
  size_t Steps = 0;
  for (size_t K = NameIdx; K-- > 0 && Steps < 64; ++Steps) {
    const Token &Tok = T[K];
    if (isPunct(Tok, ";") || isPunct(Tok, "{") || isPunct(Tok, "}"))
      return;
    if (isPunct(Tok, ":") && K > 0 &&
        (isIdent(T[K - 1], "public") || isIdent(T[K - 1], "private") ||
         isIdent(T[K - 1], "protected")))
      return;
    if (isIdent(Tok, "DOPE_HOT"))
      Hot = true;
    if (isIdent(Tok, "DOPE_COLD"))
      Cold = true;
    if (isIdent(Tok, "virtual"))
      Virtual = true;
  }
}

} // namespace

std::vector<Scope> dopelint::collectScopes(const std::vector<Token> &T) {
  ClassRegions Classes(T);

  // Pass A: find every function header and remember its body brace.
  std::map<size_t, Scope> BodyStart;
  for (size_t I = 0; I + 1 < T.size(); ++I) {
    if (T[I].InPP)
      continue;
    Scope S;
    size_t Body = SIZE_MAX;
    size_t HeaderOpen = SIZE_MAX;
    if (T[I].Kind == TokKind::Ident && isPunct(T[I + 1], "(") &&
        !isKeywordNoCall(T[I].Text)) {
      size_t Close = matchForward(T, I + 1, "(", ")");
      if (Close >= T.size())
        continue;
      bool SawOverride = false;
      Body = findBody(T, Close, SawOverride, S.RequiresCaps);
      if (Body == SIZE_MAX)
        continue;
      S.Name = T[I].Text;
      S.Line = T[I].Line;
      S.Virtual = SawOverride;
      // Out-of-line `X::name` (or `X::~name`) qualifier, else the
      // innermost enclosing class.
      if (I >= 2 && isPunct(T[I - 1], "::") && T[I - 2].Kind == TokKind::Ident)
        S.Qual = T[I - 2].Text;
      else if (I >= 3 && isPunct(T[I - 1], "~") && isPunct(T[I - 2], "::") &&
               T[I - 3].Kind == TokKind::Ident)
        S.Qual = T[I - 3].Text;
      else
        S.Qual = Classes.enclosing(I);
      HeaderOpen = I + 1;
      scanHeaderPrefix(T, I, S.Hot, S.Cold, S.Virtual);
      for (size_t H = HeaderOpen + 1; H < Close; ++H)
        S.HeaderToks.push_back(H);
    } else if (isPunct(T[I], "]") && isPunct(T[I + 1], "(")) {
      size_t Close = matchForward(T, I + 1, "(", ")");
      if (Close >= T.size())
        continue;
      bool SawOverride = false;
      Body = findBody(T, Close, SawOverride, S.RequiresCaps);
      if (Body == SIZE_MAX)
        continue;
      S.Name = "<lambda>";
      S.Line = T[I].Line;
      S.Qual = Classes.enclosing(I);
      for (size_t H = I + 2; H < Close; ++H)
        S.HeaderToks.push_back(H);
    } else if (isPunct(T[I], "]") && isPunct(T[I + 1], "{")) {
      Body = I + 1;
      S.Name = "<lambda>";
      S.Line = T[I].Line;
      S.Qual = Classes.enclosing(I);
    } else {
      continue;
    }
    if (Body != SIZE_MAX && !BodyStart.count(Body))
      BodyStart.emplace(Body, std::move(S));
  }

  // Pass B: attribute each token to the innermost enclosing scope.
  std::vector<Scope> Done;
  struct Active {
    Scope S;
    int BodyDepth;
  };
  std::vector<Active> Stack;
  int Depth = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    if (isPunct(T[I], "{")) {
      ++Depth;
      auto It = BodyStart.find(I);
      if (It != BodyStart.end()) {
        Stack.push_back({std::move(It->second), Depth});
        continue;
      }
    } else if (isPunct(T[I], "}")) {
      if (!Stack.empty() && Stack.back().BodyDepth == Depth) {
        Done.push_back(std::move(Stack.back().S));
        Stack.pop_back();
        --Depth;
        continue;
      }
      --Depth;
    }
    if (!Stack.empty())
      Stack.back().S.OwnToks.push_back(I);
  }
  while (!Stack.empty()) { // unterminated at EOF: keep what we saw
    Done.push_back(std::move(Stack.back().S));
    Stack.pop_back();
  }
  return Done;
}

//===----------------------------------------------------------------------===//
// Hot-path impurities
//===----------------------------------------------------------------------===//

const char *dopelint::impurityNoun(ImpurityKind K) {
  switch (K) {
  case ImpurityKind::Lock:
    return "a lock";
  case ImpurityKind::Alloc:
    return "an allocation";
  case ImpurityKind::Blocking:
    return "a blocking wait";
  case ImpurityKind::Growth:
    return "container growth";
  }
  return "an impurity";
}

std::optional<Impurity> dopelint::classifyImpurity(const std::vector<Token> &T,
                                                   size_t Idx) {
  static const std::set<std::string> LockTypes = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  static const std::set<std::string> LockCalls = {
      "lock", "try_lock", "lock_shared", "try_lock_shared"};
  static const std::set<std::string> PthreadLocks = {
      "pthread_mutex_lock", "pthread_spin_lock", "pthread_rwlock_rdlock",
      "pthread_rwlock_wrlock"};
  static const std::set<std::string> Allocs = {
      "make_unique", "make_shared", "malloc", "calloc", "realloc"};
  // Blocking waits: a DOPE_HOT body must stay wait-free — parking
  // belongs in a dedicated cold entry point.
  static const std::set<std::string> BlockingCalls = {
      "wait", "wait_for", "wait_until", "waitAndPop"};
  // Amortized-growth members: owner-side fast paths may not grow
  // containers inline; growth must live in a cold helper.
  static const std::set<std::string> GrowthCalls = {
      "push_back", "emplace_back", "resize", "reserve"};

  const Token &Tok = T[Idx];
  if (Tok.Kind != TokKind::Ident)
    return std::nullopt;
  Impurity Imp;
  Imp.Detail = Tok.Text;
  Imp.Line = Tok.Line;
  if (LockTypes.count(Tok.Text) || PthreadLocks.count(Tok.Text)) {
    Imp.Kind = ImpurityKind::Lock;
    return Imp;
  }
  const bool MemberCall =
      Idx > 0 && Idx + 1 < T.size() &&
      (isPunct(T[Idx - 1], ".") || isPunct(T[Idx - 1], "->")) &&
      isPunct(T[Idx + 1], "(");
  if (MemberCall && LockCalls.count(Tok.Text)) {
    Imp.Kind = ImpurityKind::Lock;
    Imp.Detail = "." + Tok.Text + "()";
    return Imp;
  }
  if (MemberCall && BlockingCalls.count(Tok.Text)) {
    Imp.Kind = ImpurityKind::Blocking;
    Imp.Detail = "." + Tok.Text + "()";
    return Imp;
  }
  if (MemberCall && GrowthCalls.count(Tok.Text)) {
    Imp.Kind = ImpurityKind::Growth;
    Imp.Detail = "." + Tok.Text + "()";
    return Imp;
  }
  if (Tok.Text == "new" || Allocs.count(Tok.Text)) {
    Imp.Kind = ImpurityKind::Alloc;
    return Imp;
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

namespace {

/// Statement-introducing identifiers that may directly precede a call:
/// `return foo(x)` is a call, `Widget foo(x)` is a declaration.
bool precedesCall(const std::string &S) {
  static const std::set<std::string> K = {
      "return", "co_return", "co_yield", "else", "do",
      "throw",  "case",      "new",      "delete"};
  return K.count(S) != 0;
}

} // namespace

bool dopelint::isPrimitiveMemberOp(const std::string &S) {
  static const std::set<std::string> Ops = {
      "load",          "store",       "exchange",     "fetch_add",
      "fetch_sub",     "fetch_and",   "fetch_or",     "fetch_xor",
      "compare_exchange_strong",      "compare_exchange_weak",
      "test_and_set",  "clear",       "notify_one",   "notify_all",
      "count_down",    "test"};
  return Ops.count(S) != 0;
}

CallGraph::CallGraph(const std::vector<FileTokens> &Files) {
  for (const FileTokens &File : Files)
    ScopeCache.emplace(&File, collectScopes(File.Lex.Tokens));
  for (const FileTokens &File : Files) {
    const std::vector<Token> &T = File.Lex.Tokens;
    for (const Scope &S : ScopeCache.at(&File)) {
      if (S.Name == "<lambda>")
        continue;
      FnNode N;
      N.File = &File;
      N.Def = &S;
      for (size_t Idx : S.OwnToks) {
        if (std::optional<Impurity> Imp = classifyImpurity(T, Idx)) {
          N.Impurities.push_back(std::move(*Imp));
          continue;
        }
        const Token &Tok = T[Idx];
        if (Tok.Kind != TokKind::Ident || Tok.InPP ||
            isKeywordNoCall(Tok.Text) || Idx + 1 >= T.size() ||
            !isPunct(T[Idx + 1], "("))
          continue;
        if (Idx > 0) {
          const Token &Prev = T[Idx - 1];
          // `Type name(args)` is a declaration, `~X(` a destructor call
          // on a name the graph resolves by class anyway.
          if (Prev.Kind == TokKind::Ident && !precedesCall(Prev.Text))
            continue;
          if (isPunct(Prev, "~"))
            continue;
          if ((isPunct(Prev, ".") || isPunct(Prev, "->")) &&
              isPrimitiveMemberOp(Tok.Text))
            continue;
        }
        N.Calls.push_back({Tok.Text, Tok.Line});
      }
      Nodes.push_back(std::move(N));
    }
  }
  for (size_t I = 0; I != Nodes.size(); ++I)
    ByName[Nodes[I].Def->Name].push_back(I);
}

const std::vector<Scope> &CallGraph::scopesOf(const FileTokens &File) const {
  static const std::vector<Scope> Empty;
  auto It = ScopeCache.find(&File);
  return It == ScopeCache.end() ? Empty : It->second;
}

const FnNode *CallGraph::resolve(const std::string &Callee,
                                 const std::string &FromQual,
                                 const FnNode *Self) const {
  auto It = ByName.find(Callee);
  if (It == ByName.end())
    return nullptr;
  std::vector<const FnNode *> Cands;
  for (size_t I : It->second) {
    const FnNode *N = &Nodes[I];
    if (N == Self)
      continue;
    Cands.push_back(N);
  }
  if (Cands.empty())
    return nullptr;
  if (!FromQual.empty()) {
    std::vector<const FnNode *> Same;
    for (const FnNode *N : Cands)
      if (N->Def->Qual == FromQual)
        Same.push_back(N);
    if (Same.size() == 1)
      return Same.front();
    if (Same.size() > 1)
      return nullptr; // overload set in the caller's class: ambiguous
  }
  if (Cands.size() == 1)
    return Cands.front();
  // Multiple definitions across classes: resolvable only when they all
  // live in one class (an overload set) — pick the first, matching the
  // HP003 never-guess rule for genuinely cross-class ambiguity.
  for (size_t I = 1; I < Cands.size(); ++I)
    if (Cands[I]->Def->Qual != Cands[0]->Def->Qual)
      return nullptr;
  return Cands.front();
}

//===----------------------------------------------------------------------===//
// Atomics index
//===----------------------------------------------------------------------===//

namespace {

/// Canonical order name for an identifier appearing in an atomic-op
/// argument list, or empty. Exact std names first, then the alias
/// suffix convention (an alias detail::QueueRelaxed -> "relaxed").
std::string orderOf(const std::string &S) {
  static const std::map<std::string, std::string> Exact = {
      {"memory_order_relaxed", "relaxed"},
      {"memory_order_consume", "consume"},
      {"memory_order_acquire", "acquire"},
      {"memory_order_release", "release"},
      {"memory_order_acq_rel", "acq_rel"},
      {"memory_order_seq_cst", "seq_cst"},
      {"relaxed", "relaxed"},
      {"consume", "consume"},
      {"acquire", "acquire"},
      {"release", "release"},
      {"acq_rel", "acq_rel"},
      {"seq_cst", "seq_cst"}};
  auto It = Exact.find(S);
  if (It != Exact.end())
    return It->second;
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::string(Suffix).size();
    return S.size() > N && S.compare(S.size() - N, N, Suffix) == 0;
  };
  if (EndsWith("Relaxed"))
    return "relaxed";
  if (EndsWith("Acquire"))
    return "acquire";
  if (EndsWith("Release"))
    return "release";
  if (EndsWith("AcqRel"))
    return "acq_rel";
  if (EndsWith("SeqCst"))
    return "seq_cst";
  return "";
}

bool isAtomicOpName(const std::string &S) {
  static const std::set<std::string> Ops = {
      "load",          "store",         "exchange",
      "fetch_add",     "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",     "compare_exchange_strong",
      "compare_exchange_weak"};
  return Ops.count(S) != 0;
}

} // namespace

std::vector<AtomicOp>
dopelint::collectAtomicOps(const std::vector<FileTokens> &Files,
                           const CallGraph &CG) {
  // Pass 1: declarations. Member name -> set of class-qualified keys.
  std::map<std::string, std::set<std::string>> DeclKeys;
  for (const FileTokens &File : Files) {
    const std::vector<Token> &T = File.Lex.Tokens;
    ClassRegions Classes(T);
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      if (!isIdent(T[I], "atomic") || !isPunct(T[I + 1], "<") || T[I].InPP)
        continue;
      size_t Close = matchForward(T, I + 1, "<", ">");
      if (Close + 1 >= T.size() || T[Close + 1].Kind != TokKind::Ident)
        continue;
      const std::string &Member = T[Close + 1].Text;
      if (Close + 2 < T.size() &&
          !(isPunct(T[Close + 2], ";") || isPunct(T[Close + 2], "{") ||
            isPunct(T[Close + 2], "=") || isPunct(T[Close + 2], ",")))
        continue; // parameter, cast, or template argument — not a decl
      std::string Qual = Classes.enclosing(I);
      if (Qual.empty())
        Qual = fileStem(File.Path);
      DeclKeys[Member].insert(Qual + "::" + Member);
    }
  }

  // Pass 2: member operations, resolved against the declarations.
  std::vector<AtomicOp> Ops;
  for (const FileTokens &File : Files) {
    const std::vector<Token> &T = File.Lex.Tokens;
    ClassRegions Classes(T);
    ScopeIndex ScopeAt(CG.scopesOf(File), T.size());
    for (size_t I = 1; I + 1 < T.size(); ++I) {
      if (T[I].Kind != TokKind::Ident || !isAtomicOpName(T[I].Text) ||
          T[I].InPP)
        continue;
      if (!isPunct(T[I - 1], ".") && !isPunct(T[I - 1], "->"))
        continue;
      if (!isPunct(T[I + 1], "("))
        continue;
      // Receiver: hop backward over index/call groups to the base name
      // (`Run->Remaining[TaskIndex].fetch_sub` resolves to Remaining).
      size_t R = I - 1;
      std::string Member;
      while (R-- > 0) {
        if (isPunct(T[R], "]")) {
          size_t Open = matchBackward(T, R, "[", "]");
          if (Open == SIZE_MAX || Open == 0)
            break;
          R = Open;
          continue;
        }
        if (isPunct(T[R], ")")) {
          size_t Open = matchBackward(T, R, "(", ")");
          if (Open == SIZE_MAX || Open == 0)
            break;
          R = Open;
          continue;
        }
        if (T[R].Kind == TokKind::Ident)
          Member = T[R].Text;
        break;
      }
      if (Member.empty())
        continue;
      auto DeclIt = DeclKeys.find(Member);
      if (DeclIt == DeclKeys.end())
        continue;
      const Scope *Enclosing = ScopeAt.at(I);
      std::string SiteQual =
          Enclosing && !Enclosing->Qual.empty() ? Enclosing->Qual
                                                : Classes.enclosing(I);
      if (SiteQual.empty())
        SiteQual = fileStem(File.Path);
      std::string Key;
      if (DeclIt->second.size() == 1) {
        Key = *DeclIt->second.begin();
      } else {
        std::string Qualified = SiteQual + "::" + Member;
        if (DeclIt->second.count(Qualified))
          Key = Qualified;
        else
          continue; // ambiguous receiver: never guess
      }
      AtomicOp Op;
      Op.Key = Key;
      Op.Member = Member;
      Op.Op = T[I].Text;
      Op.File = &File;
      Op.Line = T[I].Line;
      Op.Enclosing = Enclosing;
      size_t ArgClose = matchForward(T, I + 1, "(", ")");
      std::vector<std::string> Orders;
      for (size_t K = I + 2; K < ArgClose && K < T.size(); ++K) {
        if (T[K].Kind != TokKind::Ident)
          continue;
        std::string O = orderOf(T[K].Text);
        if (!O.empty())
          Orders.push_back(std::move(O));
      }
      Op.Order = Orders.empty() ? "seq_cst" : Orders.front();
      if (Orders.size() > 1 &&
          Op.Op.rfind("compare_exchange", 0) == 0)
        Op.FailOrder = Orders[1];
      Ops.push_back(std::move(Op));
    }
  }
  return Ops;
}
