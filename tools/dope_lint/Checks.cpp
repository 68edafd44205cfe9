//===- tools/dope_lint/Checks.cpp - DoPE contract checks -------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "CallGraph.h"
#include "LockGraph.h"

#include <algorithm>
#include <functional>
#include <map>

using namespace dopelint;

//===----------------------------------------------------------------------===//
// Check table
//===----------------------------------------------------------------------===//

const std::vector<CheckInfo> &dopelint::allChecks() {
  static const std::vector<CheckInfo> Checks = {
      {"DL001", "error", "determinism-clock",
       "raw std::chrono clock read outside support/Clock.h"},
      {"DL002", "error", "determinism-random",
       "raw RNG primitive outside support/Random"},
      {"HP001", "error", "hot-path-lock",
       "DOPE_HOT function body acquires a lock"},
      {"HP002", "error", "hot-path-alloc",
       "DOPE_HOT function body allocates"},
      {"HP003", "warning", "hot-path-virtual-call",
       "DOPE_HOT function body calls a non-DOPE_HOT virtual"},
      {"AP001", "error", "begin-end-pairing",
       "Task::begin / Task::end imbalance on one TaskRuntime"},
      {"AP002", "warning", "wait-before-destroy",
       "Dope::create without wait/waitFor/destroy in the same function"},
      {"AP003", "warning", "fini-once",
       "FiniCB registered more than once for one descriptor"},
      {"TS001", "error", "trace-kind-names",
       "TraceKind enumerators and KindNames serializer table disagree"},
      {"TS002", "error", "trace-kind-switch",
       "defaultless switch over TraceKind misses enumerators"},
      {"HP004", "error", "hot-path-transitive",
       "DOPE_HOT body reaches a lock/allocation/blocking wait/growth "
       "through a call chain"},
      {"LK001", "error", "lock-order-cycle",
       "cycle in the static lock-acquisition graph (potential deadlock)"},
      {"LK002", "warning", "lock-across-blocking",
       "lock held across a blocking call"},
      {"MO001", "warning", "atomic-order-mix",
       "relaxed operation on an atomic that elsewhere uses stronger "
       "orders, with no fence or mo-proof"},
      {"MO002", "warning", "cas-order-split",
       "compare_exchange success/failure orders differ without mo-proof"},
  };
  return Checks;
}

static const char *severityOf(const std::string &Id) {
  for (const CheckInfo &C : allChecks())
    if (Id == C.Id)
      return C.Severity;
  return "error";
}

bool dopelint::isDeterminismWhitelisted(const std::string &Path) {
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::string(Suffix).size();
    return Path.size() >= N && Path.compare(Path.size() - N, N, Suffix) == 0;
  };
  return EndsWith("support/Clock.h") || EndsWith("support/Random.h") ||
         EndsWith("support/Random.cpp");
}

//===----------------------------------------------------------------------===//
// Pass 1: global index
//===----------------------------------------------------------------------===//

static void indexTraceSchema(const FileTokens &File, GlobalIndex &Index) {
  const std::vector<Token> &T = File.Lex.Tokens;
  for (size_t I = 0; I + 2 < T.size(); ++I) {
    if (isIdent(T[I], "enum") && isIdent(T[I + 1], "class") &&
        isIdent(T[I + 2], "TraceKind")) {
      size_t J = I + 3;
      while (J < T.size() && !isPunct(T[J], "{") && !isPunct(T[J], ";"))
        ++J; // skip the underlying-type clause
      if (J >= T.size() || !isPunct(T[J], "{"))
        continue;
      size_t End = matchForward(T, J, "{", "}");
      int Depth = 0;
      bool AtName = true; // next ident at depth 1 is an enumerator name
      for (size_t K = J; K < End; ++K) {
        if (isPunct(T[K], "{") || isPunct(T[K], "("))
          ++Depth;
        else if (isPunct(T[K], "}") || isPunct(T[K], ")"))
          --Depth;
        else if (Depth == 1 && isPunct(T[K], ","))
          AtName = true;
        else if (Depth == 1 && T[K].Kind == TokKind::Ident && AtName) {
          Index.TraceKindEnumerators.push_back(T[K].Text);
          AtName = false;
        }
      }
    }
    if (isIdent(T[I], "KindNames")) {
      size_t J = I + 1;
      while (J < T.size() && !isPunct(T[J], "{") && !isPunct(T[J], ";"))
        ++J;
      if (J >= T.size() || !isPunct(T[J], "{"))
        continue;
      size_t End = matchForward(T, J, "{", "}");
      int Count = 0;
      for (size_t K = J + 1; K < End; ++K)
        if (T[K].Kind == TokKind::String)
          ++Count;
      Index.KindNamesStrings = Count;
      Index.KindNamesFile = File.Path;
      Index.KindNamesLine = T[I].Line;
    }
  }
}

GlobalIndex dopelint::buildIndex(const std::vector<FileTokens> &Files) {
  GlobalIndex Index;
  for (const FileTokens &File : Files) {
    const std::vector<Token> &T = File.Lex.Tokens;
    for (size_t I = 0; I < T.size(); ++I) {
      // DOPE_HOT <ret-type...> name( — take the first ident directly
      // before a '(' within the declaration.
      if (isIdent(T[I], "DOPE_HOT")) {
        for (size_t J = I + 1; J + 1 < T.size() && J < I + 24; ++J) {
          if (isPunct(T[J], ";") || isPunct(T[J], "{"))
            break;
          if (T[J].Kind == TokKind::Ident && isPunct(T[J + 1], "(") &&
              !(J > 0 && isPunct(T[J - 1], "~"))) {
            Index.HotFunctions.insert(T[J].Text);
            break;
          }
        }
      }
      if (isIdent(T[I], "virtual")) {
        for (size_t J = I + 1; J + 1 < T.size() && J < I + 24; ++J) {
          if (isPunct(T[J], ";") || isPunct(T[J], "{") ||
              isPunct(T[J], "}"))
            break;
          if (T[J].Kind == TokKind::Ident && isPunct(T[J + 1], "(") &&
              !(J > 0 && isPunct(T[J - 1], "~"))) {
            Index.VirtualFunctions.insert(T[J].Text);
            break;
          }
        }
      }
    }
    for (const Scope &S : collectScopes(T)) {
      if (S.Name == "<lambda>")
        continue;
      if (S.Hot)
        Index.HotFunctions.insert(S.Name);
      if (S.Virtual)
        Index.VirtualFunctions.insert(S.Name);
      else
        Index.NonVirtualDefs.insert(S.Name);
    }
    indexTraceSchema(File, Index);
  }
  return Index;
}

//===----------------------------------------------------------------------===//
// Pass 2: per-file checks
//===----------------------------------------------------------------------===//

namespace {

class FileChecker {
public:
  FileChecker(const FileTokens &File, const GlobalIndex &Index,
              const CheckOptions &Opts)
      : File(File), T(File.Lex.Tokens), Index(Index), Opts(Opts) {}

  std::vector<Finding> run() {
    if (!isDeterminismWhitelisted(File.Path))
      checkDeterminism();
    Scopes = collectScopes(T);
    for (const Scope &S : Scopes) {
      if (S.Hot)
        checkHotPurity(S);
      checkPairing(S);
      checkWaitBeforeDestroy(S);
      checkFiniOnce(S);
    }
    checkTraceSchema();
    checkTraceSwitches();
    std::stable_sort(Findings.begin(), Findings.end(),
                     [](const Finding &A, const Finding &B) {
                       return A.Line < B.Line;
                     });
    return std::move(Findings);
  }

private:
  const FileTokens &File;
  const std::vector<Token> &T;
  const GlobalIndex &Index;
  const CheckOptions &Opts;
  std::vector<Scope> Scopes;
  std::vector<Finding> Findings;

  void report(const char *Id, unsigned Line, std::string Message) {
    if (Opts.Disabled.count(Id) || isSuppressed(File, Id, Line))
      return;
    Finding F;
    F.CheckId = Id;
    F.Severity = severityOf(Id);
    F.File = File.Path;
    F.Line = Line;
    F.Message = std::move(Message);
    Findings.push_back(std::move(F));
  }

  //===--------------------------------------------------------------===//
  // DL001 / DL002
  //===--------------------------------------------------------------===//

  void checkDeterminism() {
    static const std::set<std::string> Clocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    static const std::set<std::string> Rng = {
        "rand",          "srand",      "random_device",
        "mt19937",       "mt19937_64", "default_random_engine",
        "minstd_rand",   "minstd_rand0"};
    for (const Token &Tok : T) {
      if (Tok.Kind != TokKind::Ident || Tok.InPP)
        continue;
      if (Clocks.count(Tok.Text))
        report("DL001", Tok.Line,
               "raw std::chrono::" + Tok.Text +
                   " outside support/Clock.h; route time through "
                   "dope::monotonicSeconds()/secondsDuration() so runs "
                   "stay replayable");
      else if (Rng.count(Tok.Text))
        report("DL002", Tok.Line,
               "raw RNG primitive '" + Tok.Text +
                   "' outside support/Random; use dope::Rng with a "
                   "logged seed so runs stay reproducible");
    }
  }

  //===--------------------------------------------------------------===//
  // HP001 / HP002 / HP003
  //===--------------------------------------------------------------===//

  /// Renders one direct-body impurity as its HP001/HP002 finding. The
  /// detectors (and message wording) are shared with HP004's
  /// transitive walk via classifyImpurity.
  void reportImpurity(const std::string &FnName, const Impurity &Imp) {
    const bool MemberCall = !Imp.Detail.empty() && Imp.Detail[0] == '.';
    switch (Imp.Kind) {
    case ImpurityKind::Lock:
      if (MemberCall)
        report("HP001", Imp.Line,
               "hot path '" + FnName + "' calls " + Imp.Detail +
                   "; DOPE_HOT monitoring paths must stay lock-free");
      else
        report("HP001", Imp.Line,
               "hot path '" + FnName + "' acquires a lock via '" +
                   Imp.Detail +
                   "'; DOPE_HOT monitoring paths must stay lock-free "
                   "(mirror state into relaxed atomics instead)");
      break;
    case ImpurityKind::Blocking:
      report("HP001", Imp.Line,
             "hot path '" + FnName + "' blocks in " + Imp.Detail +
                 "; DOPE_HOT scheduler paths must stay wait-free "
                 "(park in a dedicated cold entry point instead)");
      break;
    case ImpurityKind::Growth:
      report("HP002", Imp.Line,
             "hot path '" + FnName + "' grows a container via " +
                 Imp.Detail +
                 "; DOPE_HOT paths must pre-size storage and keep "
                 "growth in a cold helper");
      break;
    case ImpurityKind::Alloc:
      report("HP002", Imp.Line,
             "hot path '" + FnName + "' allocates via '" + Imp.Detail +
                 "'; DOPE_HOT paths run per task instance and must "
                 "not hit the allocator");
      break;
    }
  }

  void checkHotPurity(const Scope &S) {
    for (size_t Idx : S.OwnToks) {
      const Token &Tok = T[Idx];
      if (Tok.Kind != TokKind::Ident)
        continue;
      if (std::optional<Impurity> Imp = classifyImpurity(T, Idx)) {
        reportImpurity(S.Name, *Imp);
        continue;
      }
      // Call to a known virtual that is neither DOPE_HOT nor shadowed
      // by a non-virtual definition of the same name.
      if (Idx + 1 < T.size() && isPunct(T[Idx + 1], "(") &&
          !isKeywordNoCall(Tok.Text) && Tok.Text != S.Name &&
          !(Idx > 0 && isPunct(T[Idx - 1], "::")) &&
          Index.VirtualFunctions.count(Tok.Text) &&
          !Index.HotFunctions.count(Tok.Text) &&
          !Index.NonVirtualDefs.count(Tok.Text)) {
        report("HP003", Tok.Line,
               "hot path '" + S.Name + "' calls virtual '" + Tok.Text +
                   "()' which is not DOPE_HOT; annotate the callee or "
                   "devirtualize the hot path");
      }
    }
  }

  //===--------------------------------------------------------------===//
  // AP001
  //===--------------------------------------------------------------===//

  void checkPairing(const Scope &S) {
    // TaskRuntime &V declarations in the header or body.
    std::vector<std::string> Vars;
    auto ScanDecls = [&](const std::vector<size_t> &Toks) {
      for (size_t Idx : Toks) {
        if (isIdent(T[Idx], "TaskRuntime") && Idx + 2 < T.size() &&
            isPunct(T[Idx + 1], "&") &&
            T[Idx + 2].Kind == TokKind::Ident)
          Vars.push_back(T[Idx + 2].Text);
      }
    };
    ScanDecls(S.HeaderToks);
    ScanDecls(S.OwnToks);
    for (const std::string &V : Vars) {
      unsigned Begins = 0, Ends = 0;
      for (size_t Idx : S.OwnToks) {
        if (!isIdent(T[Idx], V.c_str()) || Idx + 3 >= T.size())
          continue;
        if (!isPunct(T[Idx + 1], ".") || !isPunct(T[Idx + 3], "("))
          continue;
        if (isIdent(T[Idx + 2], "begin"))
          ++Begins;
        else if (isIdent(T[Idx + 2], "end"))
          ++Ends;
      }
      if (Begins != Ends && (Begins || Ends))
        report("AP001", S.Line,
               "function '" + S.Name + "' calls " + V + ".begin() " +
                   std::to_string(Begins) + " time(s) but " + V +
                   ".end() " + std::to_string(Ends) +
                   " time(s); every begin must pair with an end on "
                   "all paths");
    }
  }

  //===--------------------------------------------------------------===//
  // AP002
  //===--------------------------------------------------------------===//

  void checkWaitBeforeDestroy(const Scope &S) {
    size_t CreateAt = SIZE_MAX;
    unsigned CreateLine = 0;
    for (size_t Idx : S.OwnToks) {
      if (isIdent(T[Idx], "Dope") && Idx + 2 < T.size() &&
          isPunct(T[Idx + 1], "::") && isIdent(T[Idx + 2], "create")) {
        CreateAt = Idx;
        CreateLine = T[Idx].Line;
        break;
      }
    }
    if (CreateAt == SIZE_MAX)
      return;
    for (size_t Idx : S.OwnToks) {
      if (Idx <= CreateAt)
        continue;
      if (isIdent(T[Idx], "wait") || isIdent(T[Idx], "waitFor") ||
          isIdent(T[Idx], "destroy"))
        return;
    }
    report("AP002", CreateLine,
           "function '" + S.Name +
               "' calls Dope::create but never wait()/waitFor()/"
               "destroy(); destroying a live region skips the FiniCB "
               "quiesce protocol");
  }

  //===--------------------------------------------------------------===//
  // AP003
  //===--------------------------------------------------------------===//

  void checkFiniOnce(const Scope &S) {
    // createTask(Name, Fn, Load, Desc, Init, Fini): two calls binding a
    // non-empty FiniCB to the same descriptor expression register the
    // finalizer twice — it must run exactly once per region drain.
    std::map<std::string, unsigned> FiniByDesc;
    for (size_t Idx : S.OwnToks) {
      if (!isIdent(T[Idx], "createTask") || Idx + 1 >= T.size() ||
          !isPunct(T[Idx + 1], "("))
        continue;
      size_t Close = matchForward(T, Idx + 1, "(", ")");
      if (Close >= T.size())
        continue;
      // Split top-level arguments.
      std::vector<std::pair<size_t, size_t>> Args; // [begin, end)
      int Paren = 0, Brace = 0, Square = 0;
      size_t ArgBegin = Idx + 2;
      for (size_t K = Idx + 2; K <= Close; ++K) {
        const Token &Tok = T[K];
        if (K == Close || (isPunct(Tok, ",") && Paren == 0 && Brace == 0 &&
                           Square == 0)) {
          if (K > ArgBegin)
            Args.push_back({ArgBegin, K});
          ArgBegin = K + 1;
          continue;
        }
        if (isPunct(Tok, "("))
          ++Paren;
        else if (isPunct(Tok, ")"))
          --Paren;
        else if (isPunct(Tok, "{"))
          ++Brace;
        else if (isPunct(Tok, "}"))
          --Brace;
        else if (isPunct(Tok, "["))
          ++Square;
        else if (isPunct(Tok, "]"))
          --Square;
      }
      if (Args.size() < 6)
        continue;
      auto ArgText = [&](size_t N) {
        std::string Out;
        for (size_t K = Args[N].first; K < Args[N].second; ++K) {
          if (!Out.empty())
            Out += ' ';
          Out += T[K].Text;
        }
        return Out;
      };
      std::string Fini = ArgText(5);
      if (Fini.empty() || Fini == "{ }" || Fini == "nullptr")
        continue;
      std::string Desc = ArgText(3);
      auto It = FiniByDesc.find(Desc);
      if (It != FiniByDesc.end())
        report("AP003", T[Idx].Line,
               "function '" + S.Name +
                   "' registers a FiniCB for descriptor '" + Desc +
                   "' again (first at line " + std::to_string(It->second) +
                   "); FiniCB must be registered at most once per "
                   "descriptor");
      else
        FiniByDesc.emplace(std::move(Desc), T[Idx].Line);
    }
  }

  //===--------------------------------------------------------------===//
  // TS001
  //===--------------------------------------------------------------===//

  void checkTraceSchema() {
    if (File.Path != Index.KindNamesFile || Index.KindNamesStrings < 0 ||
        Index.TraceKindEnumerators.empty())
      return;
    int Enums = static_cast<int>(Index.TraceKindEnumerators.size());
    if (Enums != Index.KindNamesStrings)
      report("TS001", Index.KindNamesLine,
             "TraceKind has " + std::to_string(Enums) +
                 " enumerators but KindNames serializes " +
                 std::to_string(Index.KindNamesStrings) +
                 "; every TraceKind needs a serializer entry (and a "
                 "replay case) or drained traces will not round-trip");
  }

  //===--------------------------------------------------------------===//
  // TS002
  //===--------------------------------------------------------------===//

  void checkTraceSwitches() {
    if (Index.TraceKindEnumerators.empty())
      return;
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      if (!isIdent(T[I], "switch") || !isPunct(T[I + 1], "("))
        continue;
      size_t CondClose = matchForward(T, I + 1, "(", ")");
      if (CondClose + 1 >= T.size() || !isPunct(T[CondClose + 1], "{"))
        continue;
      size_t BodyClose = matchForward(T, CondClose + 1, "{", "}");
      std::set<std::string> Cases;
      bool HasDefault = false;
      for (size_t K = CondClose + 2; K < BodyClose; ++K) {
        if (isIdent(T[K], "case") && K + 3 < T.size() &&
            isIdent(T[K + 1], "TraceKind") && isPunct(T[K + 2], "::") &&
            T[K + 3].Kind == TokKind::Ident)
          Cases.insert(T[K + 3].Text);
        if (isIdent(T[K], "default") && K + 1 < T.size() &&
            isPunct(T[K + 1], ":"))
          HasDefault = true;
      }
      if (Cases.empty() || HasDefault)
        continue;
      std::string Missing;
      for (const std::string &E : Index.TraceKindEnumerators)
        if (!Cases.count(E)) {
          if (!Missing.empty())
            Missing += ", ";
          Missing += E;
        }
      if (!Missing.empty())
        report("TS002", T[I].Line,
               "defaultless switch over TraceKind misses enumerator(s) " +
                   Missing +
                   "; cover every kind or add a default so trace-schema "
                   "growth cannot silently skip records");
    }
  }
};

} // namespace

std::vector<Finding> dopelint::runChecks(const FileTokens &File,
                                         const GlobalIndex &Index,
                                         const CheckOptions &Opts) {
  return FileChecker(File, Index, Opts).run();
}

//===----------------------------------------------------------------------===//
// Shared suppression lookup
//===----------------------------------------------------------------------===//

bool dopelint::isSuppressed(const FileTokens &File, const std::string &Id,
                            unsigned Line) {
  // A suppression comment covers its own line and the next one, so
  // both trailing (`code; // dope-lint: allow(X)`) and leading
  // (comment-above) placements work.
  for (unsigned L : {Line, Line ? Line - 1 : 0}) {
    auto It = File.Lex.Suppressions.find(L);
    if (It != File.Lex.Suppressions.end() &&
        (It->second.count(Id) || It->second.count("all")))
      return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Pass 3: whole-program checks (HP004, LK001/LK002, MO001/MO002)
//===----------------------------------------------------------------------===//

namespace {

std::string baseOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

/// `// dope-lint: mo-proof(anchor)` on the op's line or the line above.
bool hasMoProof(const FileTokens &File, unsigned Line) {
  for (unsigned L : {Line, Line ? Line - 1 : 0})
    if (File.Lex.MoProofs.count(L))
      return true;
  return false;
}

/// HP004: depth-first walk from every DOPE_HOT root through resolvable
/// calls. DOPE_HOT callees are skipped (they are checked as their own
/// roots) and DOPE_COLD callees terminate the walk — that is the
/// sanctioned way to hang a slow path off a hot one. The finding is
/// anchored at the root's call site so `// dope-lint: allow(HP004)`
/// placed there documents a reviewed exception.
void runHotTransitive(const CallGraph &CG, std::vector<Finding> &Out) {
  for (const FnNode &Root : CG.nodes()) {
    if (!Root.Def->Hot || Root.Def->Name == "<lambda>")
      continue;
    std::set<const FnNode *> Visited;
    std::function<void(const FnNode &, const std::vector<ChainFrame> &,
                       unsigned)>
        Walk = [&](const FnNode &N, const std::vector<ChainFrame> &Chain,
                   unsigned RootSite) {
          for (const CallSite &C : N.Calls) {
            const FnNode *Target = CG.resolve(C.Callee, N.Def->Qual, &N);
            if (!Target || Target->Def->Hot || Target->Def->Cold)
              continue;
            if (!Visited.insert(Target).second)
              continue;
            std::vector<ChainFrame> Next = Chain;
            Next.push_back({N.Def->Name, N.File->Path, C.Line});
            unsigned Anchor = RootSite ? RootSite : C.Line;
            if (!Target->Impurities.empty()) {
              const Impurity &Imp = Target->Impurities.front();
              std::string Path;
              for (const ChainFrame &F : Next)
                Path += F.Symbol + " -> ";
              Path += Target->Def->Name;
              Finding F;
              F.CheckId = "HP004";
              F.File = Root.File->Path;
              F.Line = Anchor;
              F.Message =
                  "hot path '" + Root.Def->Name + "' reaches " +
                  impurityNoun(Imp.Kind) + " via " + Path + " ('" +
                  Imp.Detail + "' at " + baseOf(Target->File->Path) + ":" +
                  std::to_string(Imp.Line) +
                  "); DOPE_HOT paths must stay pure through every callee "
                  "— mark a reviewed slow path DOPE_COLD or hoist the "
                  "impurity out (--explain shows the chain)";
              F.Chain = Next;
              F.Chain.push_back(
                  {Target->Def->Name, Target->File->Path, Imp.Line});
              Out.push_back(std::move(F));
            }
            Walk(*Target, Next, Anchor);
          }
        };
    Walk(Root, {}, 0);
  }
}

/// MO001 / MO002 over the whole-program atomics index.
void runMemoryOrderChecks(const std::vector<FileTokens> &Files,
                          const CallGraph &CG, std::vector<Finding> &Out) {
  std::vector<AtomicOp> Ops = collectAtomicOps(Files, CG);
  std::map<std::string, std::set<std::string>> OrdersByKey;
  for (const AtomicOp &Op : Ops)
    OrdersByKey[Op.Key].insert(Op.Order);
  static const std::set<std::string> Strong = {"acquire", "release",
                                               "acq_rel", "seq_cst",
                                               "consume"};
  for (const AtomicOp &Op : Ops) {
    if (Op.Op.rfind("compare_exchange", 0) == 0 && !Op.FailOrder.empty() &&
        Op.FailOrder != Op.Order && !hasMoProof(*Op.File, Op.Line)) {
      Finding F;
      F.CheckId = "MO002";
      F.File = Op.File->Path;
      F.Line = Op.Line;
      F.Message =
          "atomic '" + Op.Member + "' " + Op.Op + " uses " + Op.Order +
          " on success but " + Op.FailOrder +
          " on failure; split CAS orders need a written argument — "
          "annotate '// dope-lint: mo-proof(<DESIGN.md anchor>)' after "
          "review, or use one order";
      Out.push_back(std::move(F));
    }
    if (Op.Order != "relaxed")
      continue;
    std::string Stronger;
    for (const std::string &O : OrdersByKey[Op.Key])
      if (Strong.count(O))
        Stronger += (Stronger.empty() ? "" : "/") + O;
    if (Stronger.empty())
      continue;
    // A fence anywhere in the enclosing body is the classic
    // fence-then-relaxed idiom (Chase-Lev): exempt.
    if (Op.Enclosing) {
      bool Fenced = false;
      for (size_t Idx : Op.Enclosing->OwnToks)
        if (isIdent(Op.File->Lex.Tokens[Idx], "atomic_thread_fence"))
          Fenced = true;
      if (Fenced)
        continue;
    }
    if (hasMoProof(*Op.File, Op.Line))
      continue;
    Finding F;
    F.CheckId = "MO001";
    F.File = Op.File->Path;
    F.Line = Op.Line;
    F.Message =
        "relaxed " + Op.Op + " on atomic '" + Op.Member + "' ('" + Op.Key +
        "'), which elsewhere uses " + Stronger +
        "; mixed orders without an adjacent fence need a written "
        "argument — annotate '// dope-lint: mo-proof(<DESIGN.md "
        "anchor>)' after review, or align the orders";
    Out.push_back(std::move(F));
  }
}

} // namespace

std::vector<Finding>
dopelint::runGlobalChecks(const std::vector<FileTokens> &Files,
                          const GlobalIndex &Index,
                          const CheckOptions &Opts) {
  (void)Index;
  CallGraph CG(Files);
  std::vector<Finding> All;
  runHotTransitive(CG, All);
  for (Finding &F : analyzeLocks(Files, CG))
    All.push_back(std::move(F));
  runMemoryOrderChecks(Files, CG, All);

  std::map<std::string, const FileTokens *> ByPath;
  for (const FileTokens &F : Files)
    ByPath[F.Path] = &F;
  std::vector<Finding> Out;
  for (Finding &F : All) {
    F.Severity = severityOf(F.CheckId);
    if (Opts.Disabled.count(F.CheckId))
      continue;
    auto It = ByPath.find(F.File);
    if (It != ByPath.end() && isSuppressed(*It->second, F.CheckId, F.Line))
      continue;
    Out.push_back(std::move(F));
  }
  std::sort(Out.begin(), Out.end(), [](const Finding &A, const Finding &B) {
    if (A.File != B.File)
      return A.File < B.File;
    if (A.Line != B.Line)
      return A.Line < B.Line;
    if (A.CheckId != B.CheckId)
      return A.CheckId < B.CheckId;
    return A.Message < B.Message;
  });
  return Out;
}
