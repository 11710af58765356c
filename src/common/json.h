// Minimal JSON value with parser and serializer. Used by the data
// repository (src/service) to persist run histories and meta-knowledge.
// Supports the JSON subset we emit: object, array, string, double, bool,
// null. Object key order is preserved for stable round-trips.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace sparktune {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double d);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  // Checked integer read of this value: kInvalidArgument unless it is a
  // number that is an integer within T's range. A plain cast of 1e300, or
  // of 1e400 parsed as infinity, would be undefined.
  template <typename T>
  Result<T> AsInt() const;

  // Array access.
  void Append(Json v);
  size_t size() const;
  const Json& at(size_t i) const;

  // Object access. Set overwrites; Get returns nullptr if missing.
  void Set(const std::string& key, Json v);
  const Json* Get(const std::string& key) const;
  bool Has(const std::string& key) const { return Get(key) != nullptr; }
  const std::vector<std::pair<std::string, Json>>& items() const {
    return object_;
  }
  const std::vector<Json>& elements() const { return array_; }

  // Typed getters with fallback; simplify repository reads.
  double GetNumberOr(const std::string& key, double fallback) const;
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;
  // AsInt of the value at `key`, or `fallback` when the key is missing.
  template <typename T>
  Result<T> GetIntOr(const std::string& key, T fallback) const;

  // Compact single-line serialization.
  std::string Dump() const;

  static Result<Json> Parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

template <typename T>
Result<T> Json::AsInt() const {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  // T's range is [min, 2^digits), and both bounds are exact doubles. NaN
  // and the infinities fail the comparisons.
  constexpr double kLo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double kHi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (is_number() && number_ >= kLo && number_ < kHi &&
      number_ == std::floor(number_)) {
    return static_cast<T>(number_);
  }
  return Status::InvalidArgument("JSON value is not an integer in range");
}

template <typename T>
Result<T> Json::GetIntOr(const std::string& key, T fallback) const {
  const Json* v = Get(key);
  if (v == nullptr) return fallback;
  if (Result<T> r = v->AsInt<T>(); r.ok()) return r;
  return Status::InvalidArgument("JSON field \"" + key +
                                 "\" is not an integer in range");
}

// Value codecs shared by the service's JSON documents (checkpoints, the
// data repository, the wire protocol).
//
// A 64-bit word as a fixed-width hex string: JSON numbers are doubles and
// would silently drop its low bits.
Json U64ToJson(uint64_t v);
// The hex word in `j`, or `fallback` when `j` is null or not a string.
uint64_t U64FromJson(const Json* j, uint64_t fallback);
// A vector of doubles as a JSON array. The reader maps a non-number
// element to 0.0 and anything but an array to an empty vector.
Json VectorToJson(const std::vector<double>& v);
std::vector<double> VectorFromJson(const Json& j);

}  // namespace sparktune
