#include "query/result_set_serde.h"

#include "storage/value_serde.h"

namespace fungusdb {
namespace {

// A decoded answer may not claim more columns than any sane query
// produces; rows are bounded by the payload size itself (every row
// costs at least one byte per column).
constexpr uint64_t kMaxColumns = 1u << 16;

}  // namespace

void SerializeResultSet(const ResultSet& result, BufferWriter& out) {
  out.WriteU32(static_cast<uint32_t>(result.column_names.size()));
  for (const std::string& name : result.column_names) {
    out.WriteString(name);
  }
  out.WriteU64(result.rows.size());
  for (const std::vector<Value>& row : result.rows) {
    for (const Value& value : row) WriteValue(out, value);
  }
  out.WriteU64(result.stats.rows_scanned);
  out.WriteU64(result.stats.rows_matched);
  out.WriteU64(result.stats.rows_consumed);
}

void SerializeInt64Answer(std::string_view column, int64_t value,
                          BufferWriter& out) {
  out.WriteU32(1);
  out.WriteString(column);
  out.WriteU64(1);
  WriteValue(out, Value::Int64(value));
  out.WriteU64(0);  // rows_scanned
  out.WriteU64(0);  // rows_matched
  out.WriteU64(0);  // rows_consumed
}

Result<ResultSet> DeserializeResultSet(BufferReader& in) {
  ResultSet result;
  uint32_t num_columns = 0;
  if (!in.Read(num_columns)) return in.error();
  if (num_columns > kMaxColumns) {
    return Status::WireFormat("result set claims " +
                              std::to_string(num_columns) + " columns");
  }
  result.column_names.resize(num_columns);
  for (std::string& name : result.column_names) {
    if (!in.Read(name)) return in.error();
  }
  uint64_t num_rows = 0;
  if (!in.Read(num_rows)) return in.error();
  // Every encoded value is at least one tag byte, so a row count the
  // remaining bytes cannot hold is corrupt — reject before reserving.
  if (num_columns == 0 && num_rows != 0) {
    return Status::WireFormat("result set has rows but no columns");
  }
  if (num_columns > 0 && num_rows > in.remaining() / num_columns) {
    return Status::WireFormat("result set claims " +
                              std::to_string(num_rows) +
                              " rows but the payload is smaller");
  }
  result.rows.resize(num_rows);
  for (std::vector<Value>& row : result.rows) {
    row.reserve(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      Result<Value> value = ReadValue(in);
      if (!value.ok()) return value.status();
      row.push_back(std::move(value).value());
    }
  }
  if (!in.Read(result.stats.rows_scanned) ||
      !in.Read(result.stats.rows_matched) ||
      !in.Read(result.stats.rows_consumed)) {
    return in.error();
  }
  return result;
}

}  // namespace fungusdb
