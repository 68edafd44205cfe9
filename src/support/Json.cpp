//===- support/Json.cpp - Minimal JSON value -------------------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace dope;

const JsonValue *JsonValue::get(std::string_view Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[K, V] : Members)
    if (K == Key)
      return &V;
  return nullptr;
}

void JsonValue::set(std::string Key, JsonValue V) {
  TheKind = Kind::Object;
  for (auto &[K, Existing] : Members)
    if (K == Key) {
      Existing = std::move(V);
      return;
    }
  Members.emplace_back(std::move(Key), std::move(V));
}

double JsonValue::getNumber(std::string_view Key, double Fallback) const {
  const JsonValue *V = get(Key);
  return V && V->isNumber() ? V->NumberValue : Fallback;
}

std::string JsonValue::getString(std::string_view Key,
                                 const std::string &Fallback) const {
  const JsonValue *V = get(Key);
  return V && V->isString() ? V->StringValue : Fallback;
}

bool JsonValue::getBool(std::string_view Key, bool Fallback) const {
  const JsonValue *V = get(Key);
  return V && V->isBool() ? V->BoolValue : Fallback;
}

std::string JsonValue::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  escapeTo(Out, S);
  return Out;
}

void JsonValue::escapeTo(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void JsonValue::appendNumber(std::string &Out, double D) {
  // to_chars is specified to give printf's bytes for %lld and %.17g.
  char Buf[32];
  char *const End = Buf + sizeof(Buf);
  const std::to_chars_result R =
      std::isfinite(D) && D == std::floor(D) && std::abs(D) < 1e15
          ? std::to_chars(Buf, End, static_cast<long long>(D))
          : std::to_chars(Buf, End, D, std::chars_format::general, 17);
  Out.append(Buf, R.ptr);
}

void JsonValue::dumpTo(std::string &Out) const {
  switch (TheKind) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolValue ? "true" : "false";
    break;
  case Kind::Number:
    appendNumber(Out, NumberValue);
    break;
  case Kind::String:
    Out += '"';
    Out += escape(StringValue);
    Out += '"';
    break;
  case Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &V : Elements) {
      if (!First)
        Out += ',';
      First = false;
      V.dumpTo(Out);
    }
    Out += ']';
    break;
  }
  case Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[K, V] : Members) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += escape(K);
      Out += "\":";
      V.dumpTo(Out);
    }
    Out += '}';
    break;
  }
  }
}

std::string JsonValue::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  std::string_view Text;
  size_t Pos = 0;
  std::string Error;

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }

  bool parseValue(JsonValue &Out);

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("dangling escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        const std::string Hex(Text.substr(Pos, 4));
        Pos += 4;
        const long Code = std::strtol(Hex.c_str(), nullptr, 16);
        // Basic-plane code points only; enough for our own files.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }
};

bool Parser::parseValue(JsonValue &Out) {
  skipSpace();
  if (Pos >= Text.size())
    return fail("unexpected end of input");
  const char C = Text[Pos];
  if (C == '{') {
    ++Pos;
    Out = JsonValue::makeObject();
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipSpace();
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      JsonValue Member;
      if (!parseValue(Member))
        return false;
      Out.set(std::move(Key), std::move(Member));
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}');
    }
  }
  if (C == '[') {
    ++Pos;
    Out = JsonValue::makeArray();
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue Element;
      if (!parseValue(Element))
        return false;
      Out.push(std::move(Element));
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']');
    }
  }
  if (C == '"') {
    std::string S;
    if (!parseString(S))
      return false;
    Out = JsonValue(std::move(S));
    return true;
  }
  if (Text.compare(Pos, 4, "true") == 0) {
    Pos += 4;
    Out = JsonValue(true);
    return true;
  }
  if (Text.compare(Pos, 5, "false") == 0) {
    Pos += 5;
    Out = JsonValue(false);
    return true;
  }
  if (Text.compare(Pos, 4, "null") == 0) {
    Pos += 4;
    Out = JsonValue();
    return true;
  }
  // Number.
  const char *Begin = Text.data() + Pos;
  char *End = nullptr;
  const double D = std::strtod(Begin, &End);
  if (End == Begin)
    return fail("invalid value");
  Pos += static_cast<size_t>(End - Begin);
  Out = JsonValue(D);
  return true;
}

} // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view Text,
                                          std::string *Error) {
  Parser P;
  P.Text = Text;
  JsonValue V;
  if (!P.parseValue(V)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipSpace();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = "trailing characters at offset " + std::to_string(P.Pos);
    return std::nullopt;
  }
  return V;
}
