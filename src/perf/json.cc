#include "perf/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rbx {
namespace perf {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) {
    throw json::Error("json: value is not a boolean");
  }
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber) {
    throw json::Error("json: value is not a number");
  }
  return number_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) {
    throw json::Error("json: value is not a string");
  }
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) {
    throw json::Error("json: value is not an array");
  }
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::fields() const {
  if (kind_ != Kind::kObject) {
    throw json::Error("json: value is not an object");
  }
  return fields_;
}

void Json::push_back(Json v) {
  if (kind_ != Kind::kArray) {
    throw json::Error("json: push_back on a non-array");
  }
  items_.push_back(std::move(v));
}

void Json::set(const std::string& key, Json v) {
  if (kind_ != Kind::kObject) {
    throw json::Error("json: set on a non-object");
  }
  for (auto& [k, value] : fields_) {
    if (k == key) {
      value = std::move(v);
      return;
    }
  }
  fields_.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, value] : fields_) {
    if (k == key) {
      return &value;
    }
  }
  return nullptr;
}

double Json::number_at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr || !v->is_number()) {
    throw json::Error("json: missing or non-numeric field '" + key + "'");
  }
  return v->as_number();
}

const std::string& Json::string_at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr || !v->is_string()) {
    throw json::Error("json: missing or non-string field '" + key + "'");
  }
  return v->as_string();
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; the bench schema never produces them, but a
    // defensive null beats emitting an unparsable token.
    out += "null";
    return;
  }
  // Integral values (interval counts, reps) print without an exponent or
  // trailing zeros; everything else uses the round-trip form.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void dump_value(const Json& j, std::string& out, int indent, int depth);

void append_indent(std::string& out, int indent, int depth) {
  if (indent >= 0) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
  }
}

void dump_value(const Json& j, std::string& out, int indent, int depth) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      out += "null";
      break;
    case Json::Kind::kBool:
      out += j.as_bool() ? "true" : "false";
      break;
    case Json::Kind::kNumber:
      append_number(out, j.as_number());
      break;
    case Json::Kind::kString:
      append_escaped(out, j.as_string());
      break;
    case Json::Kind::kArray: {
      const auto& items = j.items();
      if (items.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        append_indent(out, indent, depth + 1);
        dump_value(items[i], out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      const auto& fields = j.fields();
      if (fields.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        append_indent(out, indent, depth + 1);
        append_escaped(out, fields[i].first);
        out += indent >= 0 ? ": " : ":";
        dump_value(fields[i].second, out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

// Containers nest at most this deep.  A BENCH report nests 3 deep; the
// cap keeps the recursive descent's stack bounded on hostile input.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw json::Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    if (c == '{') {
      return parse_object(depth + 1);
    }
    if (c == '[') {
      return parse_array(depth + 1);
    }
    if (c == '"') {
      return Json::string(parse_string());
    }
    if (try_consume("null")) {
      return Json::null();
    }
    if (try_consume("true")) {
      return Json::boolean(true);
    }
    if (try_consume("false")) {
      return Json::boolean(false);
    }
    return parse_number();
  }

  // JSON's number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  // with a finite value: strtod alone would also take NaN, Infinity, hex,
  // a leading '+' or '.', and leading zeros.
  Json parse_number() {
    const std::size_t start = pos_;
    try_consume("-");
    if (try_consume("0")) {
      if (skip_digits() > 0) {
        fail("leading zero in number");
      }
    } else if (skip_digits() == 0) {
      fail("invalid value");
    }
    if (try_consume(".") && skip_digits() == 0) {
      fail("expected a digit after '.'");
    }
    if (try_consume("e") || try_consume("E")) {
      if (!try_consume("+")) {
        try_consume("-");
      }
      if (skip_digits() == 0) {
        fail("expected a digit in exponent");
      }
    }
    const double v =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(v)) {
      pos_ = start;
      fail("number out of range");
    }
    return Json::number(v);
  }

  // Skips a run of decimal digits; returns its length.
  std::size_t skip_digits() {
    const std::size_t first = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - first;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // by the bench schema; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_array(std::size_t depth) {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value(depth));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return out;
      }
      fail("expected ',' or ']'");
    }
  }

  Json parse_object(std::size_t depth) {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(key, parse_value(depth));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  if (indent >= 0) {
    out.push_back('\n');
  }
  return out;
}

Json Json::parse(const std::string& text) {
  Parser p(text);
  return p.parse_document();
}

}  // namespace perf
}  // namespace rbx
