#ifndef PIMCOMP_COMMON_JSON_HPP
#define PIMCOMP_COMMON_JSON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pimcomp {

/// Raised on malformed JSON input.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& message) : Error(message) {}
};

/// Minimal JSON value used for the graph serialization format and machine-
/// readable reports. Supports null / bool / number / string / array / object.
/// Objects preserve key order for stable, diffable output.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}               // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}         // NOLINT
  Json(int i) : type_(Type::kNumber), number_(i) {}            // NOLINT
  Json(std::int64_t i)                                          // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}    // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {} // NOLINT

  /// Creates an empty array / object.
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const Json& at(std::size_t index) const;
  void push_back(Json value);

  /// Object access. `operator[]` on a mutable object inserts; `at` throws if
  /// the key is missing; `get` returns a fallback.
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  Json& operator[](const std::string& key);
  const std::vector<std::pair<std::string, Json>>& items() const;

  double get(const std::string& key, double fallback) const;
  std::int64_t get(const std::string& key, std::int64_t fallback) const;
  int get(const std::string& key, int fallback) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Serializes; `indent < 0` emits compact single-line output.
  std::string dump(int indent = 2) const;

  /// Parses a complete JSON document (trailing whitespace allowed).
  static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  void expect(Type t, const char* what) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Integer-array codec (the artifacts' per-core metadata). int64_vector
/// throws JsonError unless `array` is an array of integers.
Json int64_array(const std::vector<std::int64_t>& values);
std::vector<std::int64_t> int64_vector(const Json& array);

/// Reads a whole file into a Json value (throws Error on I/O failure).
Json json_from_file(const std::string& path);

/// Writes a Json value to a file, pretty-printed.
void json_to_file(const Json& value, const std::string& path);

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_JSON_HPP
