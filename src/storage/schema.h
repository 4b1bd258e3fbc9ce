#ifndef FUNGUSDB_STORAGE_SCHEMA_H_
#define FUNGUSDB_STORAGE_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/datatype.h"

namespace fungusdb {

/// One user column: name, type, nullability.
struct Field {
  std::string name;
  DataType type = DataType::kInt64;
  bool nullable = false;

  bool operator==(const Field&) const = default;

  /// "name type" or "name type null".
  std::string ToString() const;
};

/// Ordered set of user columns. The per-tuple system columns `t`
/// (insertion time) and `f` (freshness) from the paper are *not* part of
/// the schema; the Table maintains them implicitly and queries address
/// them via the reserved names `__ts` and `__freshness`.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  /// Validates field names: non-empty, unique, no `__` reserved prefix.
  static Result<Schema> Make(std::vector<Field> fields);

  /// Parses the textual form ToString() produces — "(a int64, b
  /// float64 null)" — used by the meta-command registry's \create.
  /// Whitespace-tolerant; fails with ParseError.
  static Result<Schema> Parse(std::string_view spec);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the named field, or nullopt.
  std::optional<size_t> FindField(const std::string& name) const;

  bool Equals(const Schema& other) const { return fields_ == other.fields_; }

  /// "(a int64, b float64 null)".
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// Reserved query-visible names for the system columns.
inline constexpr const char* kTimestampColumnName = "__ts";
inline constexpr const char* kFreshnessColumnName = "__freshness";

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_SCHEMA_H_
