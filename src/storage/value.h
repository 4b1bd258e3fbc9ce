#ifndef FUNGUSDB_STORAGE_VALUE_H_
#define FUNGUSDB_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/clock.h"
#include "common/result.h"
#include "storage/datatype.h"

namespace fungusdb {

/// A single dynamically-typed cell. Used at API boundaries (ingest rows,
/// query literals, result sets); the hot paths inside the engine operate
/// on typed column vectors instead.
///
/// A Value is either null (typeless) or holds exactly one of the five
/// storage types. Timestamps are int64 microseconds wrapped in a distinct
/// static type so they don't collapse into kInt64.
class Value {
 public:
  /// Null value; compares equal only to other nulls via Equals().
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Payload(v)); }
  static Value Float64(double v) { return Value(Payload(v)); }
  static Value String(std::string v) { return Value(Payload(std::move(v))); }
  static Value Bool(bool v) { return Value(Payload(v)); }
  static Value TimestampVal(Timestamp t) {
    return Value(Payload(Ts{t}));
  }

  bool is_null() const {
    return std::holds_alternative<std::monostate>(data_);
  }

  /// Type of a non-null value. Calling on null is a programming error.
  DataType type() const;

  /// Typed accessors; type must match (checked via assert in debug).
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsFloat64() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  bool AsBool() const { return std::get<bool>(data_); }
  Timestamp AsTimestamp() const { return std::get<Ts>(data_).micros; }

  /// Numeric view: int64/float64/timestamp as double.
  /// Fails with TypeMismatch otherwise.
  Result<double> ToDouble() const;

  /// Deep equality: null == null, same type + same payload.
  bool Equals(const Value& other) const { return data_ == other.data_; }

  /// Three-way comparison for orderable same-type values; numeric types
  /// compare cross-type through double. Fails on null or on
  /// non-comparable type combinations.
  Result<int> Compare(const Value& other) const;

  /// Human-readable rendering ("null", "42", "3.14", "'abc'", ...).
  std::string ToString() const;

  /// Bytes attributable to this value (strings dominate).
  size_t MemoryUsage() const;

 private:
  struct Ts {
    Timestamp micros;
    bool operator==(const Ts&) const = default;
  };
  using Payload =
      std::variant<std::monostate, int64_t, double, std::string, bool, Ts>;

  explicit Value(Payload data) : data_(std::move(data)) {}

  Payload data_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_VALUE_H_
