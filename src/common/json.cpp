#include "common/json.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <new>
#include <unordered_map>

namespace pimcomp {

namespace {

constexpr std::size_t kMaxArraySize = std::numeric_limits<std::uint32_t>::max();

}  // namespace

Json* Json::allocate_items(std::size_t capacity) {
  static_assert(alignof(Json) <= alignof(std::size_t));
  if (capacity == 0) return nullptr;
  void* block = ::operator new(sizeof(std::size_t) + capacity * sizeof(Json));
  new (block) std::size_t(capacity);
  return reinterpret_cast<Json*>(static_cast<char*>(block) +
                                 sizeof(std::size_t));
}

void Json::free_items(Json* items) noexcept {
  if (items == nullptr) return;
  ::operator delete(reinterpret_cast<char*>(items) - sizeof(std::size_t));
}

std::size_t Json::capacity_of(const Json* items) noexcept {
  if (items == nullptr) return 0;
  return *reinterpret_cast<const std::size_t*>(
      reinterpret_cast<const char*>(items) - sizeof(std::size_t));
}

Json::Json(const Json& other) : type_(other.type_), size_(other.size_) {
  switch (type_) {
    case Type::kString: string_ = new std::string(*other.string_); break;
    case Type::kArray: {
      items_ = allocate_items(size_);
      std::uint32_t built = 0;
      try {
        for (; built < size_; ++built) {
          new (items_ + built) Json(other.items_[built]);
        }
      } catch (...) {
        while (built > 0) items_[--built].~Json();
        free_items(items_);
        throw;
      }
      break;
    }
    case Type::kObject: object_ = new Object(*other.object_); break;
    default: number_ = other.number_; break;
  }
}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

Json& Json::operator=(Json&& other) noexcept {
  // Through a temporary: `other` may live inside this value's payload
  // (`doc = std::move(doc["child"])`), so it is detached before the old
  // payload is freed.
  Json taken(std::move(other));
  const Json old(std::move(*this));
  adopt(taken);
  return *this;
}

void Json::release() noexcept {
  switch (type_) {
    case Type::kString: delete string_; break;
    case Type::kArray:
      for (std::uint32_t i = 0; i < size_; ++i) items_[i].~Json();
      free_items(items_);
      break;
    case Type::kObject: delete object_; break;
    default: break;
  }
}

Json Json::array() noexcept { return Json(nullptr, 0); }

Json Json::object() {
  Json json;
  json.type_ = Type::kObject;
  json.object_ = new Object();
  return json;
}

void Json::expect(Type t, const char* what) const {
  if (type_ != t) {
    throw JsonError(std::string("json value is not ") + what);
  }
}

bool Json::as_bool() const {
  expect(Type::kBool, "a bool");
  return number_ != 0.0;
}

double Json::as_number() const {
  expect(Type::kNumber, "a number");
  return number_;
}

std::int64_t Json::as_int() const {
  expect(Type::kNumber, "a number");
  // [-2^63, 2^63) holds exactly the doubles that convert without overflow;
  // NaN fails the first test, infinities the range.
  if (std::trunc(number_) != number_ || number_ < -0x1p63 ||
      number_ >= 0x1p63) {
    throw JsonError("json number is not an exact 64-bit integer");
  }
  return static_cast<std::int64_t>(number_);
}

const std::string& Json::as_string() const {
  expect(Type::kString, "a string");
  return *string_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return size_;
  if (type_ == Type::kObject) return object_->size();
  throw JsonError("json value has no size");
}

const Json& Json::at(std::size_t index) const {
  expect(Type::kArray, "an array");
  if (index >= size_) throw JsonError("json array index out of range");
  return items_[index];
}

void Json::push_back(Json value) {
  expect(Type::kArray, "an array");
  const std::size_t capacity = capacity_of(items_);
  if (size_ == capacity) {
    if (capacity == kMaxArraySize) throw JsonError("json array too large");
    move_items(capacity < 4 ? 4 : std::min(capacity * 2, kMaxArraySize));
  }
  new (items_ + size_) Json(std::move(value));
  ++size_;
}

void Json::move_items(std::size_t capacity) {
  Json* fresh = allocate_items(capacity);
  // Moved-from elements are null: the old block needs no destructors.
  for (std::uint32_t i = 0; i < size_; ++i) {
    new (fresh + i) Json(std::move(items_[i]));
  }
  free_items(items_);
  items_ = fresh;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : *object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::contains(std::string_view key) const {
  return find(key) != nullptr;
}

const Json& Json::at(std::string_view key) const {
  expect(Type::kObject, "an object");
  if (const Json* value = find(key)) return *value;
  throw JsonError("missing json key: " + std::string(key));
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) *this = object();
  expect(Type::kObject, "an object");
  for (auto& [k, v] : *object_) {
    if (k == key) return v;
  }
  object_->emplace_back(std::string(key), Json());
  return object_->back().second;
}

const Json::Object& Json::items() const {
  expect(Type::kObject, "an object");
  return *object_;
}

double Json::get(std::string_view key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_number() : fallback;
}

std::int64_t Json::get(std::string_view key, std::int64_t fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_int() : fallback;
}

int Json::get(std::string_view key, int fallback) const {
  const Json* value = find(key);
  if (value == nullptr) return fallback;
  const std::int64_t number = value->as_int();
  if (number < std::numeric_limits<int>::min() ||
      number > std::numeric_limits<int>::max()) {
    throw JsonError("json number does not fit an int: " + std::string(key));
  }
  return static_cast<int>(number);
}

std::string Json::get(std::string_view key,
                      const std::string& fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_string() : fallback;
}

bool Json::get(std::string_view key, bool fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_bool() : fallback;
}

/// Appends a serialization into one buffer: the string is grown ahead of
/// the write position and trimmed to it at the end, so each token is a
/// bounds check and a direct store.
class JsonWriter {
 public:
  JsonWriter(std::string& out, int indent)
      : out_(out), indent_(indent), pos_(out.size()) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() { out_.resize(pos_); }

  void value(const Json& v, int depth) {
    switch (v.type_) {
      case Json::Type::kNull: put("null"); break;
      case Json::Type::kBool: put(v.number_ != 0.0 ? "true" : "false"); break;
      case Json::Type::kNumber: number(v.number_); break;
      case Json::Type::kString: string(*v.string_); break;
      case Json::Type::kArray: {
        if (v.size_ == 0) {
          put("[]");
          break;
        }
        put('[');
        for (std::uint32_t i = 0; i < v.size_; ++i) {
          if (i != 0) put(',');
          line(depth + 1);
          const Json& item = v.items_[i];
          if (item.type_ == Json::Type::kNumber) {
            number(item.number_);
          } else {
            value(item, depth + 1);
          }
        }
        line(depth);
        put(']');
        break;
      }
      case Json::Type::kObject: {
        if (v.object_->empty()) {
          put("{}");
          break;
        }
        put('{');
        for (std::size_t i = 0; i < v.object_->size(); ++i) {
          if (i != 0) put(',');
          line(depth + 1);
          string((*v.object_)[i].first);
          put(indent_ >= 0 ? ": " : ":");
          value((*v.object_)[i].second, depth + 1);
        }
        line(depth);
        put('}');
        break;
      }
    }
  }

 private:
  char* room(std::size_t n) {
    if (out_.size() - pos_ < n) {
      out_.resize(std::max(out_.size() * 2, pos_ + n + 256));
    }
    return out_.data() + pos_;
  }

  void put(char c) {
    *room(1) = c;
    ++pos_;
  }

  void put(std::string_view s) {
    std::memcpy(room(s.size()), s.data(), s.size());
    pos_ += s.size();
  }

  /// Integral values below 9e15 print as integers, everything else as
  /// `%.17g` (which `std::to_chars(general, 17)` reproduces byte for byte).
  void number(double d) {
    constexpr std::size_t kMaxChars = 32;
    char* first = room(kMaxChars);
    std::to_chars_result written{};
    // NaN and infinities fail the range test, so the cast is defined.
    if (std::fabs(d) < 9.0e15 &&
        static_cast<double>(static_cast<long long>(d)) == d) {
      const auto integer = static_cast<long long>(d);
      if (integer >= 0 && integer < 10) {  // most artifact columns
        *first = static_cast<char>('0' + integer);
        ++pos_;
        return;
      }
      written = std::to_chars(first, first + kMaxChars, integer);
    } else {
      written = std::to_chars(first, first + kMaxChars, d,
                              std::chars_format::general, 17);
    }
    pos_ = static_cast<std::size_t>(written.ptr - out_.data());
  }

  void string(const std::string& s) {
    static constexpr char kHex[] = "0123456789abcdef";
    put('"');
    const char* run = s.data();
    const char* const end = s.data() + s.size();
    for (const char* p = run; p != end; ++p) {
      const auto c = static_cast<unsigned char>(*p);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      put(std::string_view(run, static_cast<std::size_t>(p - run)));
      run = p + 1;
      switch (c) {
        case '"': put("\\\""); break;
        case '\\': put("\\\\"); break;
        case '\n': put("\\n"); break;
        case '\t': put("\\t"); break;
        case '\r': put("\\r"); break;
        default: {
          const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xF]};
          put(std::string_view(escape, sizeof(escape)));
        }
      }
    }
    put(std::string_view(run, static_cast<std::size_t>(end - run)));
    put('"');
  }

  /// Pretty output's newline and indentation before an element.
  void line(int depth) {
    if (indent_ < 0) return;
    const std::size_t n = 1 + static_cast<std::size_t>(indent_ * depth);
    char* first = room(n);
    first[0] = '\n';
    std::memset(first + 1, ' ', n - 1);
    pos_ += n;
  }

  std::string& out_;
  const int indent_;
  std::size_t pos_;
};

void Json::dump_to(std::string& out, int indent) const {
  JsonWriter(out, indent).value(*this, 0);
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

/// Single pass over the text. Numbers follow RFC 8259's grammar and convert
/// with std::from_chars; arrays build their elements in place.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (p_ != end_) fail("trailing characters after document");
    return value;
  }

 private:
  /// Objects this large index their keys for the duplicate-key rule, so a
  /// hostile many-key object costs linear, not quadratic, time.
  static constexpr std::size_t kIndexedObject = 16;

  [[noreturn]] void fail(const char* why) const { fail_at(p_, why); }

  /// Out of line and cold, so the hot paths carry no message building.
  [[noreturn, gnu::cold, gnu::noinline]] void fail_at(const char* at,
                                                     const char* why) const {
    std::size_t line = 1, col = 1;
    for (const char* q = begin_; q < at && q < end_; ++q) {
      if (*q == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("json parse error at line " + std::to_string(line) +
                    " col " + std::to_string(col) + ": " + why);
  }

  /// The C locale's isspace set: space, \t, \n, \v, \f, \r.
  static bool is_ws(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    while (p_ != end_ && is_ws(*p_)) ++p_;
  }

  char peek() const {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  void expect_char(char c) {
    if (peek() != c) fail((std::string("expected '") + c + "'").c_str());
    ++p_;
  }

  Json parse_value(int depth) {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json();
      default: return Json(parse_number());
    }
  }

  void expect_word(std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::string_view(p_, word.size()) != word) {
      fail("invalid literal");
    }
    p_ += word.size();
  }

  void enter(int depth) const {
    if (depth > Json::kMaxDepth) {
      fail(("document nests deeper than " + std::to_string(Json::kMaxDepth) +
            " levels")
               .c_str());
    }
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out.append(run, p_);
      if (p_ == end_) fail("unterminated string");
      if (*p_++ == '"') return out;
      if (p_ == end_) fail("unexpected end of input");
      switch (*p_++) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': append_unicode_escape(out); break;
        default: --p_; fail("bad escape character");
      }
    }
  }

  /// \uXXXX, encoded as UTF-8 (basic multilingual plane only).
  void append_unicode_escape(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = peek();
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad unicode escape");
      }
      ++p_;
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

  /// Advances past a run of digits; fails unless there is at least one.
  void digits() {
    if (p_ == end_ || !is_digit(*p_)) fail("invalid number");
    while (p_ != end_ && is_digit(*p_)) ++p_;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  double parse_number() {
    const char* const start = p_;
    const char* p = p_;
    const bool negative = p != end_ && *p == '-';
    p += negative;
    const char* const first_digit = p;
    std::uint64_t value = 0;  // wraps on long runs; used only for <= 15 digits
    if (p != end_ && *p == '0') {
      ++p;  // a leading zero is the whole integer part
    } else {
      while (p != end_ && is_digit(*p)) {
        value = value * 10 + static_cast<std::uint64_t>(*p - '0');
        ++p;
      }
      if (p == first_digit) fail_at(p, "invalid number");
    }
    p_ = p;
    const bool integral = p == end_ || (*p != '.' && *p != 'e' && *p != 'E');
    if (integral && p - first_digit <= 15) {
      // Up to 15 digits is exact in a double: skip the float conversion.
      const auto magnitude = static_cast<double>(value);
      return negative ? -magnitude : magnitude;  // "-0" stays -0.0
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      digits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      digits();
    }
    double result = 0.0;
    const std::from_chars_result parsed = std::from_chars(start, p_, result);
    if (parsed.ec != std::errc() || parsed.ptr != p_) {
      fail_at(start, "invalid number");
    }
    return result;
  }

  Json parse_array(int depth) {
    enter(depth);
    ++p_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++p_;
      return Json::array();
    }
    // Elements are built in place, in a block sized like the last array
    // at this depth: the rows of an artifact's op table all have one size.
    std::uint32_t& hint = size_hints_[static_cast<std::size_t>(depth)];
    Json array(Json::allocate_items(std::max<std::uint32_t>(hint, 4)), 0);
    while (true) {
      skip_ws();
      const std::size_t capacity = Json::capacity_of(array.items_);
      if (array.size_ == capacity) {
        if (capacity == kMaxArraySize) fail("array too large");
        array.move_items(std::min(capacity * 2, kMaxArraySize));
      }
      // Numbers dominate artifacts: they skip parse_value's dispatch.
      if (p_ != end_ && (is_digit(*p_) || *p_ == '-')) {
        new (array.items_ + array.size_) Json(parse_number());
      } else {
        new (array.items_ + array.size_) Json(parse_value(depth));
      }
      ++array.size_;
      skip_ws();
      const char c = peek();
      ++p_;
      if (c == ']') break;
      if (c != ',') {
        --p_;
        fail("expected ',' or ']'");
      }
    }
    hint = array.size_;
    if (Json::capacity_of(array.items_) - array.size_ > array.size_ / 4 + 4) {
      array.move_items(array.size_);  // trim a large overshoot
    }
    return array;
  }

  Json parse_object(int depth) {
    enter(depth);
    ++p_;  // '{'
    Json object = Json::object();
    Json::Object& members = *object.object_;
    skip_ws();
    if (peek() == '}') {
      ++p_;
      return object;
    }
    std::unordered_map<std::string, std::size_t> index;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect_char(':');
      Json value = parse_value(depth);
      if (Json* slot = find_member(members, index, key)) {
        *slot = std::move(value);
      } else {
        if (!index.empty()) index.emplace(key, members.size());
        members.emplace_back(std::move(key), std::move(value));
        if (members.size() == kIndexedObject) {
          for (std::size_t i = 0; i < members.size(); ++i) {
            index.emplace(members[i].first, i);
          }
        }
      }
      skip_ws();
      const char c = peek();
      ++p_;
      if (c == '}') break;
      if (c != ',') {
        --p_;
        fail("expected ',' or '}'");
      }
    }
    return object;
  }

  static Json* find_member(
      Json::Object& members,
      const std::unordered_map<std::string, std::size_t>& index,
      const std::string& key) {
    if (!index.empty()) {
      const auto it = index.find(key);
      return it == index.end() ? nullptr : &members[it->second].second;
    }
    for (auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  std::array<std::uint32_t, Json::kMaxDepth + 1> size_hints_{};
};

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

Json int64_array(const std::vector<std::int64_t>& values) {
  if (values.size() > kMaxArraySize) throw JsonError("json array too large");
  Json* items = Json::allocate_items(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    new (items + i) Json(values[i]);
  }
  return Json(items, static_cast<std::uint32_t>(values.size()));
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

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size)) return std::nullopt;
  return text;
}

Json json_from_file(const std::string& path) {
  std::optional<std::string> text = read_file(path);
  if (!text.has_value()) throw Error("cannot open file for reading: " + path);
  return Json::parse(*text);
}

void json_to_file(const Json& value, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open file for writing: " + path);
  out << value.dump(2) << '\n';
}

}  // namespace pimcomp
