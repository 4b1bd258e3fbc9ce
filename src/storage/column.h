#ifndef FUNGUSDB_STORAGE_COLUMN_H_
#define FUNGUSDB_STORAGE_COLUMN_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/id_table.h"
#include "common/status.h"
#include "storage/datatype.h"
#include "storage/value.h"

namespace fungusdb {

/// Append-only typed column with a validity bitmap. One Column per field
/// per segment. Access by position is bounds-checked only in debug
/// builds; callers (Segment) own the invariant that positions are valid.
class Column {
 public:
  virtual ~Column() = default;

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  virtual DataType type() const = 0;
  virtual size_t size() const = 0;

  /// Appends a value; must be null (on nullable columns) or of the
  /// column's type — the Segment validates before calling.
  virtual void Append(const Value& value) = 0;

  /// Cell as a dynamic Value (null if invalid).
  virtual Value GetValue(size_t pos) const = 0;

  virtual bool IsNull(size_t pos) const = 0;

  /// Number of null cells; lets vectorized scans skip per-cell validity
  /// checks on all-valid columns.
  virtual size_t null_count() const = 0;

  /// Heap bytes held by this column.
  virtual size_t MemoryUsage() const = 0;

 protected:
  Column() = default;
};

namespace internal_column {

/// Maps a storage C++ type to its DataType tag and Value conversions.
template <typename T>
struct ColumnTraits;

template <>
struct ColumnTraits<int64_t> {
  static constexpr DataType kType = DataType::kInt64;
  static Value Wrap(int64_t v) { return Value::Int64(v); }
  static int64_t Unwrap(const Value& v) { return v.AsInt64(); }
};

template <>
struct ColumnTraits<double> {
  static constexpr DataType kType = DataType::kFloat64;
  static Value Wrap(double v) { return Value::Float64(v); }
  static double Unwrap(const Value& v) { return v.AsFloat64(); }
};

template <>
struct ColumnTraits<bool> {
  static constexpr DataType kType = DataType::kBool;
  static Value Wrap(bool v) { return Value::Bool(v); }
  static bool Unwrap(const Value& v) { return v.AsBool(); }
};

/// A vector of `n` value-initialized cells with the capacity `n`
/// appends grow a column's vector to (the next power of two), so a
/// column built in bulk — a thaw — has the MemoryUsage of the column it
/// was frozen from.
template <typename T>
std::vector<T> CellVector(size_t n) {
  std::vector<T> cells;
  cells.reserve(std::bit_ceil(n));
  cells.resize(n);
  return cells;
}

/// Validity bits for `valid[0, n)` (0 = null), sized as CellVector;
/// counts the nulls into `*null_count`.
std::vector<bool> ValidBits(const uint8_t* valid, size_t n,
                            size_t* null_count);

}  // namespace internal_column

/// Concrete column storing `T` contiguously. `TimestampColumn` is a
/// distinct subclass because Timestamp aliases int64_t; strings are
/// dictionary-coded (`StringColumn`).
template <typename T>
class TypedColumn : public Column {
 public:
  TypedColumn() = default;

  /// A column over `data` with `valid[i] == 0` marking null cells, whose
  /// slots must hold T{} — a thaw's bulk path. Both vectors get the
  /// capacity `data.size()` appends grow them to.
  TypedColumn(std::vector<T> data, const uint8_t* valid)
      : data_(std::move(data)) {
    valid_ = internal_column::ValidBits(valid, data_.size(), &null_count_);
  }

  DataType type() const override {
    return internal_column::ColumnTraits<T>::kType;
  }
  size_t size() const override { return data_.size(); }

  void Append(const Value& value) override {
    if (value.is_null()) {
      data_.push_back(T{});
      valid_.push_back(false);
      ++null_count_;
    } else {
      data_.push_back(internal_column::ColumnTraits<T>::Unwrap(value));
      valid_.push_back(true);
    }
  }

  /// Typed fast-path append (non-null).
  void AppendTyped(T v) {
    data_.push_back(std::move(v));
    valid_.push_back(true);
  }

  Value GetValue(size_t pos) const override {
    assert(pos < data_.size());
    if (!valid_[pos]) return Value::Null();
    return internal_column::ColumnTraits<T>::Wrap(data_[pos]);
  }

  bool IsNull(size_t pos) const override {
    assert(pos < valid_.size());
    return !valid_[pos];
  }

  size_t null_count() const override { return null_count_; }

  /// Raw typed access for vectorized evaluation; caller checks IsNull.
  const T& at(size_t pos) const {
    assert(pos < data_.size());
    return data_[pos];
  }

  const std::vector<T>& data() const { return data_; }

  size_t MemoryUsage() const override {
    return data_.capacity() * sizeof(T) + valid_.capacity() / 8;
  }

 private:
  std::vector<T> data_;
  std::vector<bool> valid_;
  size_t null_count_ = 0;
};

using Int64Column = TypedColumn<int64_t>;
using Float64Column = TypedColumn<double>;
using BoolColumn = TypedColumn<bool>;

/// Code of `needle` in `dict`, if present: a linear scan, so callers
/// resolve a literal once per segment, not once per row.
std::optional<uint32_t> FindDictionaryCode(
    const std::vector<std::string>& dict, std::string_view needle);

/// String column, dictionary-coded from the first append (DESIGN.md
/// §15): one uint32_t code per cell into a dictionary of the distinct
/// payloads in first-appearance order. A NULL cell holds the code of
/// "" (appended to the dictionary like any payload), which is
/// encode::DictStrings' rule — so freezing run-length packs the codes
/// and moves the dictionary, and thawing copies both back.
///
/// While the column takes appends, a hash index maps payload -> code;
/// Seal() drops it once the segment is full, so a column whose every
/// value is distinct costs its codes plus one copy of each payload.
class StringColumn : public Column {
 public:
  StringColumn() = default;

  /// A sealed column over `codes` into `dict`, with `valid[i] == 0`
  /// marking null cells. Codes are taken as given (a thaw restores
  /// exactly what the frozen image holds of a full segment).
  StringColumn(std::vector<std::string> dict, std::vector<uint32_t> codes,
               const uint8_t* valid);

  DataType type() const override { return DataType::kString; }
  size_t size() const override { return codes_.size(); }

  void Append(const Value& value) override;

  /// Typed fast-path append (non-null).
  void AppendTyped(std::string_view v);

  Value GetValue(size_t pos) const override;

  bool IsNull(size_t pos) const override {
    assert(pos < valid_.size());
    return !valid_[pos];
  }

  size_t null_count() const override { return null_count_; }

  /// The payload of a cell ("" for a null cell); caller checks IsNull.
  const std::string& at(size_t pos) const {
    assert(pos < codes_.size());
    return dict_[codes_[pos]];
  }

  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dict_; }

  /// Drops the append index once no append can come (a full segment);
  /// appending to a sealed column is a bug.
  void Seal() { index_ = IdTable(); }

  /// Moves the dictionary out (freeze); the column is unusable after.
  std::vector<std::string> ReleaseDictionary() { return std::move(dict_); }

  /// Codes, validity bits, dictionary and (while open) the index.
  size_t MemoryUsage() const override;

 private:
  friend class TestCorruptor;

  /// The code of `s`, appended to the dictionary if new.
  uint32_t Intern(std::string_view s);

  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;
  IdTable index_;  // payload hash -> code, while the column is open
  std::vector<bool> valid_;
  size_t null_count_ = 0;
};

/// Timestamp column: same layout as Int64Column, distinct DataType.
class TimestampColumn : public Column {
 public:
  TimestampColumn() = default;

  /// Bulk construction, as TypedColumn's.
  TimestampColumn(std::vector<Timestamp> data, const uint8_t* valid)
      : data_(std::move(data)) {
    valid_ = internal_column::ValidBits(valid, data_.size(), &null_count_);
  }

  DataType type() const override { return DataType::kTimestamp; }
  size_t size() const override { return data_.size(); }

  void Append(const Value& value) override {
    if (value.is_null()) {
      data_.push_back(0);
      valid_.push_back(false);
      ++null_count_;
    } else {
      data_.push_back(value.AsTimestamp());
      valid_.push_back(true);
    }
  }

  void AppendTyped(Timestamp t) {
    data_.push_back(t);
    valid_.push_back(true);
  }

  Value GetValue(size_t pos) const override {
    assert(pos < data_.size());
    if (!valid_[pos]) return Value::Null();
    return Value::TimestampVal(data_[pos]);
  }

  bool IsNull(size_t pos) const override {
    assert(pos < valid_.size());
    return !valid_[pos];
  }

  size_t null_count() const override { return null_count_; }

  Timestamp at(size_t pos) const {
    assert(pos < data_.size());
    return data_[pos];
  }

  const std::vector<Timestamp>& data() const { return data_; }

  size_t MemoryUsage() const override {
    return data_.capacity() * sizeof(Timestamp) + valid_.capacity() / 8;
  }

 private:
  std::vector<Timestamp> data_;
  std::vector<bool> valid_;
  size_t null_count_ = 0;
};

/// Creates an empty column of the given type.
std::unique_ptr<Column> MakeColumn(DataType type);

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_COLUMN_H_
