//===- support/Json.h - Minimal ordered JSON document builder --*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON value tree used by the experiment harness to emit the
/// `BENCH_*.json` artifacts. Objects preserve insertion order so emitted
/// files diff cleanly across runs. Only what the harness needs: build,
/// serialize with indentation, write to a file. No parser.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_JSON_H
#define PBT_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pbt {

/// One JSON value: null, bool, number, string, array, or object.
class Json {
public:
  Json() = default; ///< null
  Json(bool Value) : K(Kind::Bool), B(Value) {}
  Json(double Value) : K(Kind::Double), D(Value) {}
  Json(int Value) : K(Kind::Int), I(Value) {}
  Json(long Value) : K(Kind::Int), I(Value) {}
  Json(long long Value) : K(Kind::Int), I(Value) {}
  Json(unsigned Value) : K(Kind::UInt), U(Value) {}
  Json(unsigned long Value) : K(Kind::UInt), U(Value) {}
  Json(unsigned long long Value) : K(Kind::UInt), U(Value) {}
  Json(const char *Value) : K(Kind::String), S(Value) {}
  Json(std::string Value) : K(Kind::String), S(std::move(Value)) {}

  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }

  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Object member access; inserts a null member (preserving insertion
  /// order) when \p Key is absent. A null value becomes an object first.
  ///
  /// Members are vector-backed: the returned reference (and any
  /// reference returned by push()) is invalidated by a later insertion
  /// into the *same* object/array. Finish writing through a held
  /// reference before inserting the next sibling, or build subtrees in
  /// locals and move-assign them.
  Json &operator[](const std::string &Key);

  /// Pointer to the member \p Key, or nullptr.
  const Json *find(const std::string &Key) const;

  /// Array append; a null value becomes an array first. Returns the
  /// inserted element.
  Json &push(Json Value);

  /// Elements of an array / members of an object; 0 otherwise.
  size_t size() const;

  /// Serializes with \p Indent spaces per nesting level (0 = compact).
  std::string dump(int Indent = 2) const;

private:
  enum class Kind : uint8_t {
    Null,
    Bool,
    Int,
    UInt,
    Double,
    String,
    Array,
    Object,
  };

  void dumpTo(std::string &Out, int Indent, int Depth) const;

  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  uint64_t U = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Arr;
  std::vector<std::pair<std::string, Json>> Obj;
};

/// Appends \p S to \p Out as a quoted JSON string literal: quotes and
/// backslashes escaped, control characters as `\n`, `\r`, `\t` or
/// `\u00XX`, every other byte verbatim.
void appendJsonString(std::string &Out, const std::string &S);

/// Writes `Root.dump() + "\n"` to \p Path; returns false on I/O failure.
bool writeJsonFile(const std::string &Path, const Json &Root);

} // namespace pbt

#endif // PBT_SUPPORT_JSON_H
