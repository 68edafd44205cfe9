//===- tools/dope_lint/CompDb.cpp - compile_commands.json loader -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "CompDb.h"

#include "support/Json.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace dopelint;
namespace fs = std::filesystem;

bool dopelint::loadCompDb(const std::string &Path,
                          std::vector<std::string> &Files,
                          std::string &Error) {
  std::ifstream IS(Path);
  if (!IS) {
    Error = "cannot open compilation database '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  std::string ParseError;
  std::optional<dope::JsonValue> V =
      dope::JsonValue::parse(SS.str(), &ParseError);
  if (!V || !V->isArray()) {
    Error = "malformed compilation database '" + Path + "': " +
            (ParseError.empty() ? "not a JSON array" : ParseError);
    return false;
  }
  for (size_t I = 0; I != V->size(); ++I) {
    const dope::JsonValue &Entry = V->at(I);
    if (!Entry.isObject())
      continue;
    const std::string Directory = Entry.getString("directory");
    const std::string File = Entry.getString("file");
    if (File.empty())
      continue;
    fs::path P(File);
    if (P.is_relative() && !Directory.empty())
      P = fs::path(Directory) / P;
    std::error_code EC;
    fs::path Canon = fs::weakly_canonical(P, EC);
    Files.push_back(EC ? P.string() : Canon.string());
  }
  return true;
}

std::vector<std::string>
dopelint::collectHeadersUnder(const std::string &Root) {
  std::vector<std::string> Headers;
  std::error_code EC;
  fs::recursive_directory_iterator It(Root, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    std::string Ext = It->path().extension().string();
    if (Ext == ".h" || Ext == ".hpp") {
      std::error_code CanonEC;
      fs::path Canon = fs::weakly_canonical(It->path(), CanonEC);
      Headers.push_back(CanonEC ? It->path().string() : Canon.string());
    }
  }
  std::sort(Headers.begin(), Headers.end());
  return Headers;
}
