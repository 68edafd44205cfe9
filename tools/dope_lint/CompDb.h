//===- tools/dope_lint/CompDb.h - compile_commands.json loader -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads CMake's exported compile_commands.json (CMAKE_EXPORT_COMPILE
/// _COMMANDS) so dope_lint scans exactly the translation units the build
/// compiles. The database lists TUs only, so callers typically add the
/// headers under --root via collectHeadersUnder().
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TOOLS_LINT_COMPDB_H
#define DOPE_TOOLS_LINT_COMPDB_H

#include <string>
#include <vector>

namespace dopelint {

/// Parses \p Path into the absolute source path of every entry; returns
/// false with \p Error set on malformed input.
bool loadCompDb(const std::string &Path, std::vector<std::string> &Files,
                std::string &Error);

/// Recursively collects *.h / *.hpp under \p Root (sorted, absolute).
std::vector<std::string> collectHeadersUnder(const std::string &Root);

} // namespace dopelint

#endif // DOPE_TOOLS_LINT_COMPDB_H
