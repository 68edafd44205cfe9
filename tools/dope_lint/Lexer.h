//===- tools/dope_lint/Lexer.h - C++ token stream for dope_lint -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained C++ tokenizer producing the token stream the
/// dope_lint checks run over: identifiers, literals, and maximal-munch
/// punctuation.
///
/// Handled: // and /* */ comments, string/char literals (with escapes),
/// raw strings R"delim(...)delim", preprocessor directives (tokens are
/// kept but flagged InPP, including backslash-continued lines),
/// `// dope-lint: allow(ID[,ID...])` suppression comments, and
/// `// dope-lint: mo-proof(<anchor>)` reviewed-memory-order markers.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TOOLS_LINT_LEXER_H
#define DOPE_TOOLS_LINT_LEXER_H

#include <map>
#include <set>
#include <string>
#include <vector>

namespace dopelint {

enum class TokKind {
  Ident,   ///< Identifier or keyword.
  Number,  ///< Numeric literal (integer or floating, any base).
  String,  ///< String literal, including raw strings; text excludes quotes.
  CharLit, ///< Character literal; text excludes quotes.
  Punct,   ///< Punctuation, maximal munch ("::", "->", "<<=", ...).
};

struct Token {
  TokKind Kind = TokKind::Punct;
  std::string Text;
  unsigned Line = 0; ///< 1-based.
  unsigned Col = 0;  ///< 1-based.
  bool InPP = false; ///< Inside a preprocessor directive.
};

struct LexOutput {
  std::vector<Token> Tokens;
  /// Line -> check IDs suppressed on that line via
  /// `// dope-lint: allow(DL001)`. The ID "all" suppresses everything.
  std::map<unsigned, std::set<std::string>> Suppressions;
  /// Line -> DESIGN.md anchor cited via `// dope-lint: mo-proof(...)`.
  /// Unlike allow(), the marker is an *acknowledgement*: the MO checks
  /// accept a relaxed/mixed ordering only when the author points at the
  /// written argument for it. Empty anchors are ignored.
  std::map<unsigned, std::string> MoProofs;
};

/// Tokenizes \p Source. Never fails: unrecognized bytes become
/// single-character Punct tokens, unterminated literals run to EOF.
LexOutput lex(const std::string &Source);

} // namespace dopelint

#endif // DOPE_TOOLS_LINT_LEXER_H
