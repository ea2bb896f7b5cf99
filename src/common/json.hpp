#ifndef PIMCOMP_COMMON_JSON_HPP
#define PIMCOMP_COMMON_JSON_HPP

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace pimcomp {

/// Raised on malformed JSON input.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& message) : Error(message) {}
};

/// Minimal JSON value used for the graph serialization format, the wire
/// protocol, cache artifacts and machine-readable reports. Supports null /
/// bool / number / string / array / object. Objects preserve key order for
/// stable, diffable output.
///
/// A node is 16 bytes: a type tag, an array's element count, and either an
/// inline number (bools are 0/1) or an owning pointer to the string, the
/// array's element block, or the object's members. Copies are deep; moves
/// steal the payload and leave the source null, so large documents (cache
/// artifacts) should travel by move.
class Json {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Parsed documents nest at most this deep; deeper input is a JsonError,
  /// so no request line can exhaust the parser's stack.
  static constexpr int kMaxDepth = 512;

  Json() noexcept : number_(0.0) {}
  Json(bool b) noexcept                                            // NOLINT
      : type_(Type::kBool), number_(b ? 1.0 : 0.0) {}
  Json(double d) noexcept : type_(Type::kNumber), number_(d) {}   // NOLINT
  Json(int i) noexcept : type_(Type::kNumber), number_(i) {}      // NOLINT
  Json(std::int64_t i) noexcept                                    // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(const char* s) : Json(std::string(s)) {}                   // NOLINT
  Json(std::string s)                                              // NOLINT
      : type_(Type::kString), string_(new std::string(std::move(s))) {}

  Json(const Json& other);
  Json(Json&& other) noexcept { adopt(other); }
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json() {
    if (type_ >= Type::kString) release();
  }

  /// Creates an empty array / object.
  static Json array() noexcept;
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on type mismatch. as_int() also
  /// throws for a number that is not an integer or lies outside int64.
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
  bool contains(std::string_view key) const;
  const Json& at(std::string_view key) const;
  Json& operator[](std::string_view key);
  const Object& items() const;

  /// The integer overloads throw like as_int(); the int one also throws
  /// for a value outside int.
  double get(std::string_view key, double fallback) const;
  std::int64_t get(std::string_view key, std::int64_t fallback) const;
  int get(std::string_view key, int fallback) const;
  std::string get(std::string_view key, const std::string& fallback) const;
  bool get(std::string_view key, bool fallback) const;

  /// Serializes; `indent < 0` emits compact single-line output.
  std::string dump(int indent = 2) const;
  /// Appends the serialization to `out` (what dump() returns).
  void dump_to(std::string& out, int indent = -1) const;

  /// Parses a complete JSON document (RFC 8259 numbers, at most kMaxDepth
  /// nesting levels, trailing whitespace allowed). A repeated object key
  /// keeps the first key's slot and the last value.
  static Json parse(std::string_view text);

 private:
  friend class JsonParser;
  friend class JsonWriter;
  friend Json int64_array(const std::vector<std::int64_t>& values);

  /// An array owns one block: its capacity, then that many element slots,
  /// the first `size_` of them constructed. The empty array owns none.
  static Json* allocate_items(std::size_t capacity);
  static void free_items(Json* items) noexcept;
  static std::size_t capacity_of(const Json* items) noexcept;
  /// Moves the elements into a new block of `capacity` (>= size_) slots.
  void move_items(std::size_t capacity);
  Json(Json* items, std::uint32_t size) noexcept
      : type_(Type::kArray), size_(size), items_(items) {}

  /// Takes `other`'s payload (this one holds none) and leaves it null.
  void adopt(Json& other) noexcept {
    type_ = other.type_;
    size_ = other.size_;
    std::memcpy(static_cast<void*>(&number_), &other.number_, sizeof(double));
    other.type_ = Type::kNull;
    other.size_ = 0;
    other.number_ = 0.0;
  }
  /// Frees the string/array/object payload.
  void release() noexcept;
  void expect(Type t, const char* what) const;
  const Json* find(std::string_view key) const;

  // Every payload member is 8 bytes, so a move copies whichever one is
  // active bit for bit.
  Type type_ = Type::kNull;
  std::uint32_t size_ = 0;  ///< array element count
  union {
    double number_;
    std::string* string_;
    Json* items_;
    Object* object_;
  };
};

/// Integer-array codec (the artifacts' per-core metadata). int64_vector
/// throws JsonError unless `array` is an array of integers.
Json int64_array(const std::vector<std::int64_t>& values);
std::vector<std::int64_t> int64_vector(const Json& array);

/// Reads a whole file with one sized read; std::nullopt when it cannot be
/// opened or read.
std::optional<std::string> read_file(const std::string& path);

/// Reads a whole file into a Json value (throws Error on I/O failure).
Json json_from_file(const std::string& path);

/// Writes a Json value to a file, pretty-printed.
void json_to_file(const Json& value, const std::string& path);

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_JSON_HPP
