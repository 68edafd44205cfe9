//===- support/Json.h - Minimal JSON value ---------------------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON value with a recursive-descent parser and
/// a compact writer. It exists for the observability subsystem: trace
/// records, recorded feature streams, and golden decision logs are all
/// JSONL (one object per line), written and read by this class. Objects
/// preserve insertion order so emitted lines are stable and diffable.
///
/// Deliberately minimal: doubles for all numbers, no \uXXXX escapes
/// beyond pass-through, no streaming. Adequate for files this repository
/// writes itself.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SUPPORT_JSON_H
#define DOPE_SUPPORT_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dope {

/// A JSON value: null, bool, number, string, array, or object.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : TheKind(Kind::Null) {}
  JsonValue(bool B) : TheKind(Kind::Bool), BoolValue(B) {}
  JsonValue(double D) : TheKind(Kind::Number), NumberValue(D) {}
  JsonValue(int I) : TheKind(Kind::Number), NumberValue(I) {}
  JsonValue(uint64_t U)
      : TheKind(Kind::Number), NumberValue(static_cast<double>(U)) {}
  JsonValue(const char *S) : TheKind(Kind::String), StringValue(S) {}
  JsonValue(std::string S) : TheKind(Kind::String), StringValue(std::move(S)) {}

  static JsonValue makeArray() {
    JsonValue V;
    V.TheKind = Kind::Array;
    return V;
  }
  static JsonValue makeObject() {
    JsonValue V;
    V.TheKind = Kind::Object;
    return V;
  }

  Kind kind() const { return TheKind; }
  bool isNull() const { return TheKind == Kind::Null; }
  bool isBool() const { return TheKind == Kind::Bool; }
  bool isNumber() const { return TheKind == Kind::Number; }
  bool isString() const { return TheKind == Kind::String; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isObject() const { return TheKind == Kind::Object; }

  bool asBool(bool Fallback = false) const {
    return isBool() ? BoolValue : Fallback;
  }
  double asDouble(double Fallback = 0.0) const {
    return isNumber() ? NumberValue : Fallback;
  }
  const std::string &asString() const { return StringValue; }

  /// Array access.
  size_t size() const {
    return isArray() ? Elements.size() : (isObject() ? Members.size() : 0);
  }
  const JsonValue &at(size_t Index) const { return Elements[Index]; }
  void push(JsonValue V) { Elements.push_back(std::move(V)); }

  /// Object access: pointer to the member value, null when absent.
  const JsonValue *get(std::string_view Key) const;
  /// Object members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }
  /// Sets (or replaces) an object member, preserving insertion order.
  void set(std::string Key, JsonValue V);

  /// Convenience typed object lookups with fallbacks.
  double getNumber(std::string_view Key, double Fallback = 0.0) const;
  std::string getString(std::string_view Key,
                        const std::string &Fallback = {}) const;
  bool getBool(std::string_view Key, bool Fallback = false) const;

  /// Serializes compactly (no whitespace); numbers print as %.17g, which
  /// round-trips, and integers without a decimal point (appendNumber).
  std::string dump() const;

  /// Parses \p Text; on failure returns std::nullopt and fills \p Error
  /// (when non-null) with a message carrying the byte offset.
  static std::optional<JsonValue> parse(std::string_view Text,
                                        std::string *Error = nullptr);

  /// Escapes \p S for embedding in a JSON string literal (no quotes).
  static std::string escape(std::string_view S);

  /// Appends the escaped form of \p S to \p Out (no quotes); same bytes
  /// as escape() without the intermediate string. For serializers that
  /// build output directly (e.g. batched trace emission).
  static void escapeTo(std::string &Out, std::string_view S);

  /// Appends \p D formatted exactly as dump() formats numbers: integral
  /// magnitudes below 1e15 as integers, everything else as %.17g.
  /// Byte-for-byte compatibility here is what keeps hand-built JSON
  /// (trace exporters) identical to JsonValue-built JSON (goldens).
  static void appendNumber(std::string &Out, double D);

private:
  Kind TheKind;
  bool BoolValue = false;
  double NumberValue = 0.0;
  std::string StringValue;
  std::vector<JsonValue> Elements;
  std::vector<std::pair<std::string, JsonValue>> Members;

  void dumpTo(std::string &Out) const;
};

} // namespace dope

#endif // DOPE_SUPPORT_JSON_H
