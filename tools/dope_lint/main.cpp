//===- tools/dope_lint/main.cpp - DoPE contract checker --------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dope_lint — static contract checker for the DoPE executive
/// (DESIGN.md §12). Scans the translation units listed in an exported
/// compile_commands.json (plus headers under --root) or an explicit
/// file list, and enforces the determinism, hot-path purity, API
/// pairing, and trace-schema contracts. Exit codes: 0 clean, 1 findings,
/// 2 usage or I/O error.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "CompDb.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace dopelint;
namespace fs = std::filesystem;

namespace {

struct Options {
  std::vector<std::string> Files;
  std::string CompDbPath;
  std::string Root;
  bool Json = false;
  bool Basenames = false;
  bool ListChecks = false;
  bool Quiet = false;
  bool Explain = false;
  std::set<std::string> Allowed;
};

void printUsage(FILE *OS) {
  std::fprintf(
      OS,
      "usage: dope_lint [options] [files...]\n"
      "\n"
      "DoPE static contract checker (see DESIGN.md \"Static contracts\").\n"
      "\n"
      "options:\n"
      "  --compdb <path>     scan the TUs of a compile_commands.json\n"
      "  --root <dir>        restrict the scan to files under <dir> and\n"
      "                      add the headers beneath it\n"
      "  --allow <ID>        disable a check (repeatable; unknown IDs are\n"
      "                      a usage error)\n"
      "  --json              machine-readable findings on stdout\n"
      "  --basenames         print file basenames (stable golden output)\n"
      "  --explain           print interprocedural evidence chains under\n"
      "                      HP004/LK001/LK002 findings\n"
      "  --list-checks       print the check table and exit\n"
      "  --quiet             suppress the summary line\n"
      "  -h, --help          this text\n"
      "\n"
      "exit status: 0 no findings, 1 findings, 2 usage/IO error.\n");
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "dope_lint: %s requires a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (A == "-h" || A == "--help") {
      printUsage(stdout);
      std::exit(0);
    } else if (A == "--list-checks") {
      Opts.ListChecks = true;
    } else if (A == "--json") {
      Opts.Json = true;
    } else if (A == "--basenames") {
      Opts.Basenames = true;
    } else if (A == "--quiet") {
      Opts.Quiet = true;
    } else if (A == "--explain") {
      Opts.Explain = true;
    } else if (A == "--compdb") {
      const char *V = Value("--compdb");
      if (!V)
        return false;
      Opts.CompDbPath = V;
    } else if (A == "--root") {
      const char *V = Value("--root");
      if (!V)
        return false;
      Opts.Root = V;
    } else if (A == "--allow") {
      const char *V = Value("--allow");
      if (!V)
        return false;
      bool Known = std::string(V) == "all";
      for (const CheckInfo &C : allChecks())
        Known = Known || std::string(V) == C.Id;
      if (!Known) {
        std::fprintf(stderr,
                     "dope_lint: unknown check ID '%s' for --allow (see "
                     "--list-checks)\n",
                     V);
        return false;
      }
      Opts.Allowed.insert(V);
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "dope_lint: unknown option '%s'\n", A.c_str());
      return false;
    } else {
      Opts.Files.push_back(A);
    }
  }
  return true;
}

std::string canonical(const std::string &Path) {
  std::error_code EC;
  fs::path Canon = fs::weakly_canonical(Path, EC);
  return EC ? Path : Canon.string();
}

bool underRoot(const std::string &Path, const std::string &Root) {
  if (Root.empty())
    return true;
  std::string R = canonical(Root);
  if (!R.empty() && R.back() != '/')
    R += '/';
  return Path.compare(0, R.size(), R) == 0;
}

bool isSourceExt(const fs::path &P) {
  std::string E = P.extension().string();
  return E == ".cpp" || E == ".cc" || E == ".cxx" || E == ".h" ||
         E == ".hpp";
}

/// Resolves the scan list from explicit files, the compilation
/// database, and --root header discovery.
bool resolveInputs(const Options &Opts, std::vector<std::string> &Inputs) {
  std::set<std::string> Seen;
  auto Add = [&](const std::string &Path) {
    std::string C = canonical(Path);
    if (!underRoot(C, Opts.Root) || !Seen.insert(C).second)
      return;
    Inputs.push_back(std::move(C));
  };

  for (const std::string &F : Opts.Files)
    Add(F);

  if (!Opts.CompDbPath.empty()) {
    std::vector<std::string> Sources;
    std::string Error;
    if (!loadCompDb(Opts.CompDbPath, Sources, Error)) {
      std::fprintf(stderr, "dope_lint: %s\n", Error.c_str());
      return false;
    }
    for (const std::string &S : Sources)
      Add(S);
  }

  if (!Opts.Root.empty()) {
    for (const std::string &H : collectHeadersUnder(Opts.Root))
      Add(H);
    // Without a compdb the root walk must pick up the TUs itself.
    if (Opts.CompDbPath.empty() && Opts.Files.empty()) {
      std::error_code EC;
      fs::recursive_directory_iterator It(Opts.Root, EC), End;
      std::vector<std::string> Sources;
      for (; !EC && It != End; It.increment(EC))
        if (It->is_regular_file(EC) && isSourceExt(It->path()))
          Sources.push_back(It->path().string());
      std::sort(Sources.begin(), Sources.end());
      for (const std::string &S : Sources)
        Add(S);
    }
  }
  return true;
}

bool lexFile(const std::string &Path, LexOutput &Out) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    std::fprintf(stderr, "dope_lint: cannot read '%s'\n", Path.c_str());
    return false;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  std::string Source = SS.str();
  Out = lex(Source);
  return true;
}

std::string displayPath(const Options &Opts, const std::string &Path) {
  if (!Opts.Basenames)
    return Path;
  return fs::path(Path).filename().string();
}

void printText(const Options &Opts, const std::vector<Finding> &Findings,
               size_t FileCount) {
  for (const Finding &F : Findings) {
    std::printf("%s:%u: %s: [%s] %s\n",
                displayPath(Opts, F.File).c_str(), F.Line,
                F.Severity.c_str(), F.CheckId.c_str(), F.Message.c_str());
    if (Opts.Explain)
      for (size_t I = 0; I < F.Chain.size(); ++I)
        std::printf("    note: #%zu %s (%s:%u)\n", I + 1,
                    F.Chain[I].Symbol.c_str(),
                    displayPath(Opts, F.Chain[I].File).c_str(),
                    F.Chain[I].Line);
  }
  if (!Opts.Quiet) {
    size_t Errors = 0, Warnings = 0;
    for (const Finding &F : Findings)
      (F.Severity == "error" ? Errors : Warnings) += 1;
    std::printf("dope_lint: scanned %zu file(s): %zu error(s), %zu "
                "warning(s)\n",
                FileCount, Errors, Warnings);
  }
}

void printJson(const Options &Opts, const std::vector<Finding> &Findings,
               size_t FileCount) {
  dope::JsonValue Doc = dope::JsonValue::makeObject();
  dope::JsonValue Arr = dope::JsonValue::makeArray();
  for (const Finding &F : Findings) {
    dope::JsonValue O = dope::JsonValue::makeObject();
    O.set("check", dope::JsonValue(F.CheckId));
    O.set("severity", dope::JsonValue(F.Severity));
    O.set("file", dope::JsonValue(displayPath(Opts, F.File)));
    O.set("line", dope::JsonValue(static_cast<double>(F.Line)));
    O.set("message", dope::JsonValue(F.Message));
    if (!F.Chain.empty()) {
      dope::JsonValue Chain = dope::JsonValue::makeArray();
      for (const ChainFrame &Frame : F.Chain) {
        dope::JsonValue FO = dope::JsonValue::makeObject();
        FO.set("symbol", dope::JsonValue(Frame.Symbol));
        FO.set("file", dope::JsonValue(displayPath(Opts, Frame.File)));
        FO.set("line", dope::JsonValue(static_cast<double>(Frame.Line)));
        Chain.push(std::move(FO));
      }
      O.set("chain", std::move(Chain));
    }
    Arr.push(std::move(O));
  }
  Doc.set("findings", std::move(Arr));
  Doc.set("files_scanned", dope::JsonValue(static_cast<double>(FileCount)));
  std::printf("%s\n", Doc.dump().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    printUsage(stderr);
    return 2;
  }

  if (Opts.ListChecks) {
    for (const CheckInfo &C : allChecks())
      std::printf("%s  %-7s  %-22s %s\n", C.Id, C.Severity, C.Name,
                  C.Description);
    return 0;
  }

  if (Opts.Files.empty() && Opts.CompDbPath.empty() && Opts.Root.empty()) {
    std::fprintf(stderr, "dope_lint: nothing to scan\n");
    printUsage(stderr);
    return 2;
  }

  std::vector<std::string> Inputs;
  if (!resolveInputs(Opts, Inputs))
    return 2;
  if (Inputs.empty()) {
    std::fprintf(stderr, "dope_lint: no files matched\n");
    return 2;
  }

  std::vector<FileTokens> Files;
  Files.reserve(Inputs.size());
  for (const std::string &Path : Inputs) {
    FileTokens FT;
    FT.Path = Path;
    if (!lexFile(Path, FT.Lex))
      return 2;
    Files.push_back(std::move(FT));
  }

  GlobalIndex Index = buildIndex(Files);
  CheckOptions CheckOpts;
  CheckOpts.Disabled = Opts.Allowed;

  std::vector<Finding> Findings;
  for (const FileTokens &File : Files) {
    std::vector<Finding> FileFindings = runChecks(File, Index, CheckOpts);
    Findings.insert(Findings.end(),
                    std::make_move_iterator(FileFindings.begin()),
                    std::make_move_iterator(FileFindings.end()));
  }
  {
    std::vector<Finding> Global = runGlobalChecks(Files, Index, CheckOpts);
    Findings.insert(Findings.end(),
                    std::make_move_iterator(Global.begin()),
                    std::make_move_iterator(Global.end()));
  }
  std::stable_sort(Findings.begin(), Findings.end(),
                   [](const Finding &A, const Finding &B) {
                     if (A.File != B.File)
                       return A.File < B.File;
                     return A.Line < B.Line;
                   });

  if (Opts.Json)
    printJson(Opts, Findings, Files.size());
  else
    printText(Opts, Findings, Files.size());
  return Findings.empty() ? 0 : 1;
}
