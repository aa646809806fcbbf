#include "common/json.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sgprs::common {

namespace {

std::string position_suffix(int line, int column) {
  if (line <= 0) return "";
  std::ostringstream os;
  os << " (line " << line << ", column " << column << ")";
  return os.str();
}

}  // namespace

JsonError::JsonError(const std::string& msg, int line, int column)
    : std::runtime_error(msg + position_suffix(line, column)),
      line_(line),
      column_(column) {}

JsonError::JsonError(Raw, const std::string& what, int line, int column)
    : std::runtime_error(what), line_(line), column_(column) {}

JsonError JsonError::with_context(const std::string& prefix,
                                  const JsonError& e) {
  return JsonError(Raw{}, prefix + ": " + e.what(), e.line(), e.column());
}

JsonValue JsonValue::of(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::of(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = n;
  v.num_integral_ = std::nearbyint(n) == n && std::isfinite(n);
  return v;
}

JsonValue JsonValue::of(std::int64_t n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = static_cast<double>(n);
  v.num_integral_ = true;
  return v;
}

JsonValue JsonValue::of(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

const char* JsonValue::type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

const char* JsonValue::type_name() const { return type_name(type_); }

namespace {

[[noreturn]] void type_mismatch(const char* want, const char* got) {
  throw JsonError(std::string("expected ") + want + ", got " + got);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_mismatch("bool", type_name());
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_mismatch("number", type_name());
  return num_;
}

std::int64_t JsonValue::as_int() const {
  if (type_ != Type::kNumber) type_mismatch("integer", type_name());
  if (!num_integral_) {
    throw JsonError("expected integer, got non-integral number " +
                    std::to_string(num_));
  }
  // Guard the cast: a double can hold integral values far outside int64
  // (and the out-of-range conversion would be UB, not saturation).
  if (!(num_ >= -9223372036854775808.0 && num_ < 9223372036854775808.0)) {
    throw JsonError("integer out of range: " + std::to_string(num_));
  }
  return static_cast<std::int64_t>(num_);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_mismatch("string", type_name());
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_mismatch("array", type_name());
  return arr_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (type_ != Type::kObject) type_mismatch("object", type_name());
  return obj_;
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  type_mismatch("array or object", type_name());
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type_ != Type::kObject) type_mismatch("object", type_name());
  if (const JsonValue* v = find(key)) return *v;
  throw JsonError("missing required key \"" + key + "\"");
}

void JsonValue::push(JsonValue v) {
  if (type_ != Type::kArray) type_mismatch("array", type_name());
  arr_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (type_ != Type::kObject) type_mismatch("object", type_name());
  obj_.emplace_back(key, std::move(v));
}

namespace {

/// Recursive-descent parser with 1-based line/column tracking. Nesting is
/// capped at kMaxJsonDepth so hostile input fails with a positioned error
/// instead of exhausting the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (!at_end()) fail("trailing content after JSON document");
    return v;
  }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError(msg, line_, col_);
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!at_end() && peek() != '\n') advance();
      } else {
        break;
      }
    }
  }

  void expect(char c, const char* context) {
    skip_ws();
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "' " + context +
           (at_end() ? " but hit end of input"
                     : std::string(", got '") + peek() + "'"));
    }
    advance();
  }

  JsonValue parse_value() {
    skip_ws();
    if (at_end()) fail("unexpected end of input, expected a value");
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::of(parse_string());
      case 't': return parse_keyword("true", JsonValue::of(true));
      case 'f': return parse_keyword("false", JsonValue::of(false));
      case 'n': return parse_keyword("null", JsonValue());
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c +
             "', expected a value");
    }
  }

  JsonValue parse_keyword(const char* word, JsonValue result) {
    for (const char* p = word; *p; ++p) {
      if (at_end() || peek() != *p) {
        fail(std::string("misspelled keyword, expected \"") + word + "\"");
      }
      advance();
    }
    return result;
  }

  JsonValue parse_number() {
    const int line = line_, col = col_;
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') advance();
    auto digits = [&] {
      bool any = false;
      while (!at_end() && peek() >= '0' && peek() <= '9') {
        advance();
        any = true;
      }
      return any;
    };
    // Strict JSON: an integer part is a single 0 or starts with 1-9.
    if (at_end() || peek() < '0' || peek() > '9') {
      throw JsonError("malformed number", line, col);
    }
    if (peek() == '0') {
      advance();
      if (!at_end() && peek() >= '0' && peek() <= '9') {
        throw JsonError("leading zeros are not allowed", line, col);
      }
    } else {
      digits();
    }
    if (!at_end() && peek() == '.') {
      advance();
      if (!digits()) throw JsonError("malformed number", line, col);
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      if (!digits()) throw JsonError("malformed number", line, col);
    }
    // of(double) marks integral-valued numbers, which is what as_int checks.
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      throw JsonError("number out of double range: " + token, line, col);
    }
    return JsonValue::of(value);
  }

  std::string parse_string() {
    expect('"', "to open a string");
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character inside string (use \\n, \\t, ...)");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) fail("unterminated escape sequence");
      const char e = advance();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail(std::string("unknown escape \"\\") + e + "\"");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) fail("truncated \\u escape");
      const char c = advance();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("non-hex digit in \\u escape");
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs unsupported —
    // scenario specs are ASCII-leaning; fail loudly instead of mangling).
    if (code >= 0xD800 && code <= 0xDFFF) {
      fail("surrogate-pair \\u escapes are not supported");
    }
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
  }

  JsonValue parse_array() {
    expect('[', "to open an array");
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      advance();
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (at_end()) fail("unterminated array, expected ',' or ']'");
      const char c = advance();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{', "to open an object");
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      advance();
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      for (const auto& [k, v] : obj.members()) {
        if (k == key) fail("duplicate key \"" + key + "\"");
      }
      expect(':', "after object key");
      obj.set(key, parse_value());
      skip_ws();
      if (at_end()) fail("unterminated object, expected ',' or '}'");
      const char c = advance();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int depth_ = 0;  // open arrays/objects around the current value
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JsonError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_json(buf.str());
  } catch (const JsonError& e) {
    throw JsonError::with_context(path, e);
  }
}

}  // namespace sgprs::common
