// Minimal JSON value type for the bench harness (src/perf/).
//
// BENCH_*.json files must be readable by any off-the-shelf tooling (CI
// validates them with python3), so the harness writes real JSON - but the
// repo takes no external dependencies, so this is a small self-contained
// value type with a strict recursive-descent parser and a pretty-printing
// serializer.  It covers exactly what the bench schema needs: objects with
// ordered keys, arrays, strings, doubles and booleans.  Numbers round-trip
// doubles exactly (shortest form via %.17g on the way out, strtod on the
// way in).  The parser accepts only JSON's number grammar with a finite
// value, and containers nested at most 256 deep.  Parse errors throw
// json::Error with a byte offset.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rbx {
namespace perf {

namespace json {
// Malformed JSON text (truncated input, bad escape, trailing garbage, a
// number outside JSON's grammar or range, nesting past the depth cap).
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
}  // namespace json

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  // Typed accessors; throw json::Error when the kind does not match (a
  // schema violation in a hand-edited file should be a clear error, not UB).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;
  const std::vector<std::pair<std::string, Json>>& fields() const;

  // Array append / object insert (keeps insertion order).
  void push_back(Json v);
  void set(const std::string& key, Json v);

  // Object lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;
  // Schema helpers: lookup + type check in one call, throwing json::Error
  // naming the key when absent or mistyped.
  double number_at(const std::string& key) const;
  const std::string& string_at(const std::string& key) const;

  // Serializes with two-space indentation (indent < 0: compact one-liner).
  std::string dump(int indent = 2) const;

  // Strict parse of a complete JSON document (trailing garbage rejected).
  static Json parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> fields_;
};

}  // namespace perf
}  // namespace rbx
