// Minimal JSON value parser — just enough for the repo's own machine
// formats (BENCH_*.json, StatsReport::ToJson, trace exports). Not a
// general-purpose library: no \uXXXX surrogate pairs beyond the BMP, no
// configurable depth limits, numbers parsed with strtod.
//
// Values are immutable after Parse(). Object member order is preserved
// (stored as a vector of pairs), which keeps round-trip tests byte-exact
// for the repo's deterministic writers.
//
// The writing side is one string escaper, JsonEscape, shared by the wire
// protocol, the event log and the trace renderer.
#ifndef ECRPQ_COMMON_JSON_H_
#define ECRPQ_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ecrpq {

// Escapes `s` as the body of a JSON string (no surrounding quotes): '"',
// '\\', \n, \r, \t and \u00XX for the other control bytes. Each piece goes
// to `put(std::string_view)`, so with a non-allocating `put` the escape
// allocates nothing — the fatal-signal trace dump depends on that.
template <typename Put>
void JsonEscapeTo(std::string_view s, Put&& put) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t plain = 0;  // Start of the pending run of unescaped bytes.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    char esc[6] = {'\\', 0, '0', '0', 0, 0};
    size_t len = 2;
    if (c == '"' || c == '\\') {
      esc[1] = static_cast<char>(c);
    } else if (c == '\n') {
      esc[1] = 'n';
    } else if (c == '\r') {
      esc[1] = 'r';
    } else if (c == '\t') {
      esc[1] = 't';
    } else if (c < 0x20) {
      esc[1] = 'u';
      esc[4] = kHex[c >> 4];
      esc[5] = kHex[c & 0xf];
      len = 6;
    } else {
      continue;
    }
    put(s.substr(plain, i - plain));
    put(std::string_view(esc, len));
    plain = i + 1;
  }
  put(s.substr(plain));
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  JsonEscapeTo(s, [&out](std::string_view piece) { out += piece; });
  return out;
}

namespace json {

class Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject),
        object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Accessors ECRPQ_CHECK on type mismatch — callers test the type first
  // (or use Find/Get below which fold the test in).
  bool AsBool() const;
  double AsNumber() const;
  // AsNumber checked + cast; values outside uint64 range are clamped to 0.
  uint64_t AsUint64() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  // Object member lookup (first match); nullptr when absent or not an
  // object.
  const Value* Find(const std::string& key) const;
  // Typed lookups: false / untouched `out` when the member is absent or has
  // the wrong type.
  bool GetNumber(const std::string& key, double* out) const;
  bool GetUint64(const std::string& key, uint64_t* out) const;
  bool GetString(const std::string& key, std::string* out) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  // shared_ptr keeps Value copyable and cheap to pass around; parsed
  // documents are read-only so sharing is safe.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage is
// an error). Errors carry a byte offset.
Result<Value> Parse(const std::string& text);

}  // namespace json
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_JSON_H_
