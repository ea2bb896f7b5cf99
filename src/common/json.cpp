#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pimcomp {

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

void Json::expect(Type t, const char* what) const {
  if (type_ != t) {
    throw JsonError(std::string("json value is not ") + what);
  }
}

bool Json::as_bool() const {
  expect(Type::kBool, "a bool");
  return bool_;
}

double Json::as_number() const {
  expect(Type::kNumber, "a number");
  return number_;
}

std::int64_t Json::as_int() const {
  expect(Type::kNumber, "a number");
  return static_cast<std::int64_t>(std::llround(number_));
}

const std::string& Json::as_string() const {
  expect(Type::kString, "a string");
  return string_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  throw JsonError("json value has no size");
}

const Json& Json::at(std::size_t index) const {
  expect(Type::kArray, "an array");
  if (index >= array_.size()) throw JsonError("json array index out of range");
  return array_[index];
}

void Json::push_back(Json value) {
  expect(Type::kArray, "an array");
  array_.push_back(std::move(value));
}

bool Json::contains(const std::string& key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  expect(Type::kObject, "an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  throw JsonError("missing json key: " + key);
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  expect(Type::kObject, "an object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, Json());
  return object_.back().second;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  expect(Type::kObject, "an object");
  return object_;
}

double Json::get(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::int64_t Json::get(const std::string& key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

int Json::get(const std::string& key, int fallback) const {
  return contains(key) ? static_cast<int>(at(key).as_int()) : fallback;
}

std::string Json::get(const std::string& key,
                      const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::get(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void format_number(double d, std::string& out) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::llround(d)));
    out += buf;
  } else {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                  : std::string();
  const std::string closing_pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                  : std::string();
  const char* nl = indent >= 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: format_number(number_, out); break;
    case Type::kString: escape_string(string_, out); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[";
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ",";
        out += nl;
      }
      out += closing_pad;
      out += "]";
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      out += nl;
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += pad;
        escape_string(object_[i].first, out);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < object_.size()) out += ",";
        out += nl;
      }
      out += closing_pad;
      out += "}";
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream oss;
    oss << "json parse error at line " << line << " col " << col << ": "
        << why;
    throw JsonError(oss.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect_char(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json();
      default: return parse_number();
    }
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("invalid literal");
      ++pos_;
    }
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = take();
      if (c == '"') break;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad unicode escape");
            }
            // Encode as UTF-8 (basic multilingual plane only).
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
          default: fail("bad escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid number");
    try {
      return Json(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("invalid number");
    }
  }

  Json parse_array() {
    expect_char('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
    return arr;
  }

  Json parse_object() {
    expect_char('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect_char(':');
      obj[key] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
    return obj;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

Json int64_array(const std::vector<std::int64_t>& values) {
  Json array = Json::array();
  for (std::int64_t v : values) array.push_back(v);
  return array;
}

std::vector<std::int64_t> int64_vector(const Json& array) {
  if (!array.is_array()) throw JsonError("json value is not an array");
  std::vector<std::int64_t> values;
  values.reserve(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    values.push_back(array.at(i).as_int());
  }
  return values;
}

Json json_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open file for reading: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return Json::parse(oss.str());
}

void json_to_file(const Json& value, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open file for writing: " + path);
  out << value.dump(2) << '\n';
}

}  // namespace pimcomp
