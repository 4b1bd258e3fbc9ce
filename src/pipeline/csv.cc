#include "pipeline/csv.h"

#include <cstdlib>

#include "common/string_util.h"

namespace fungusdb {

std::vector<std::string> SplitCsvLine(std::string_view line,
                                      char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r' && i + 1 == line.size()) {
      // Tolerate CRLF input.
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<Value> ParseCsvField(const std::string& field, DataType type,
                            bool empty_is_null) {
  if (field.empty() && empty_is_null && type != DataType::kString) {
    return Value::Null();
  }
  switch (type) {
    case DataType::kInt64: {
      const std::optional<int64_t> v = ParseInteger<int64_t>(field);
      if (!v.has_value()) {
        return Status::ParseError("not an int64: '" + field + "'");
      }
      return Value::Int64(*v);
    }
    case DataType::kFloat64: {
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return Status::ParseError("not a float64: '" + field + "'");
      }
      return Value::Float64(v);
    }
    case DataType::kBool: {
      if (EqualsIgnoreCase(field, "true") || field == "1") {
        return Value::Bool(true);
      }
      if (EqualsIgnoreCase(field, "false") || field == "0") {
        return Value::Bool(false);
      }
      return Status::ParseError("not a bool: '" + field + "'");
    }
    case DataType::kTimestamp: {
      const std::optional<int64_t> v = ParseInteger<int64_t>(field);
      if (!v.has_value()) {
        return Status::ParseError("not a timestamp: '" + field + "'");
      }
      return Value::TimestampVal(*v);
    }
    case DataType::kString:
      return Value::String(field);
  }
  return Status::Internal("unhandled type");
}

Result<std::vector<Value>> ParseCsvRow(const Schema& schema,
                                       std::string_view csv) {
  const std::vector<std::string> fields = SplitCsvLine(csv, ',');
  if (fields.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(schema.num_fields()) + " fields, got " +
        std::to_string(fields.size()));
  }
  std::vector<Value> values;
  values.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const Field& field = schema.field(i);
    FUNGUSDB_ASSIGN_OR_RETURN(
        Value value, ParseCsvField(fields[i], field.type, field.nullable));
    values.push_back(std::move(value));
  }
  return values;
}

CsvSource::CsvSource(std::istream* input, Schema schema, CsvOptions options)
    : input_(input), schema_(std::move(schema)), options_(options) {}

std::optional<std::vector<Value>> CsvSource::Next() {
  if (!status_.ok()) return std::nullopt;
  std::string line;
  while (std::getline(*input_, line)) {
    ++line_number_;
    if (options_.has_header && !header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    if (StripWhitespace(line).empty()) continue;
    std::vector<std::string> fields =
        SplitCsvLine(line, options_.delimiter);
    if (fields.size() != schema_.num_fields()) {
      status_ = Status::ParseError(
          "line " + std::to_string(line_number_) + ": expected " +
          std::to_string(schema_.num_fields()) + " fields, got " +
          std::to_string(fields.size()));
      return std::nullopt;
    }
    std::vector<Value> record;
    record.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      Result<Value> value = ParseCsvField(fields[i], schema_.field(i).type,
                                          options_.empty_is_null);
      if (!value.ok()) {
        status_ = Status::ParseError("line " +
                                     std::to_string(line_number_) + ": " +
                                     value.status().message());
        return std::nullopt;
      }
      record.push_back(std::move(*value));
    }
    ++records_read_;
    return record;
  }
  return std::nullopt;  // clean end of input
}

std::string FormatCsvField(const Value& value, char delimiter) {
  if (value.is_null()) return "";
  std::string raw;
  switch (value.type()) {
    case DataType::kInt64:
      raw = std::to_string(value.AsInt64());
      break;
    case DataType::kFloat64:
      raw = FormatDouble(value.AsFloat64(), 6);
      break;
    case DataType::kBool:
      raw = value.AsBool() ? "true" : "false";
      break;
    case DataType::kTimestamp:
      raw = std::to_string(value.AsTimestamp());
      break;
    case DataType::kString:
      raw = value.AsString();
      break;
  }
  const bool needs_quoting =
      raw.find(delimiter) != std::string::npos ||
      raw.find('"') != std::string::npos ||
      raw.find('\n') != std::string::npos;
  if (!needs_quoting) return raw;
  std::string quoted = "\"";
  for (char c : raw) {
    if (c == '"') quoted += "\"\"";
    else quoted.push_back(c);
  }
  quoted += "\"";
  return quoted;
}

Status WriteCsv(const Table& table, std::ostream& out, CsvOptions options,
                bool include_system_columns) {
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (i > 0) out << options.delimiter;
      out << schema.field(i).name;
    }
    if (include_system_columns) {
      out << options.delimiter << kTimestampColumnName << options.delimiter
          << kFreshnessColumnName;
    }
    out << "\n";
  }
  Status status;
  table.ForEachLive([&](RowId row) {
    if (!status.ok()) return;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (c > 0) out << options.delimiter;
      Result<Value> v = table.GetValue(row, c);
      if (!v.ok()) {
        status = v.status();
        return;
      }
      out << FormatCsvField(*v, options.delimiter);
    }
    if (include_system_columns) {
      out << options.delimiter << table.InsertTime(row).value()
          << options.delimiter << FormatDouble(table.Freshness(row), 6);
    }
    out << "\n";
  });
  return status;
}

Status WriteCsv(const ResultSet& result, std::ostream& out,
                CsvOptions options) {
  if (options.has_header) {
    for (size_t i = 0; i < result.column_names.size(); ++i) {
      if (i > 0) out << options.delimiter;
      out << result.column_names[i];
    }
    out << "\n";
  }
  for (const std::vector<Value>& row : result.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << options.delimiter;
      out << FormatCsvField(row[c], options.delimiter);
    }
    out << "\n";
  }
  return Status::OK();
}

}  // namespace fungusdb
