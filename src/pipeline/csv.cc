#include "pipeline/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "common/string_util.h"

namespace fungusdb {

namespace {

/// The one CSV splitter (SplitCsvLine's rules): yields the fields of
/// one line in order. An unquoted field is a view into the line; a
/// field with quotes is unescaped into the splitter's own buffer, and
/// its view lasts until the next Next().
class CsvSplitter {
 public:
  /// `line` must outlive the splitter.
  CsvSplitter(std::string_view line, char delimiter)
      : line_(line), delimiter_(delimiter) {}

  /// The next field, or false past the last one. Every line has at
  /// least one field ("" has one empty field, "a," two).
  bool Next(std::string_view& field);

 private:
  std::string_view line_;
  char delimiter_;
  size_t pos_ = 0;  // start of the next field
  bool done_ = false;
  std::string unquoted_;
};

bool CsvSplitter::Next(std::string_view& field) {
  if (done_) return false;
  const size_t n = line_.size();
  size_t i = pos_;
  while (i < n && line_[i] != '"' && line_[i] != delimiter_) ++i;
  if (i == n || line_[i] != '"') {
    // No quote: the field is the line's own bytes.
    size_t end = i;
    if (i == n) {
      done_ = true;
      if (end > pos_ && line_[end - 1] == '\r') --end;  // CRLF input
    }
    field = line_.substr(pos_, end - pos_);
    pos_ = i + 1;
    return true;
  }
  unquoted_.assign(line_.substr(pos_, i - pos_));
  bool in_quotes = false;
  for (; i < n; ++i) {
    const char c = line_[i];
    if (in_quotes) {
      if (c != '"') {
        unquoted_.push_back(c);
      } else if (i + 1 < n && line_[i + 1] == '"') {
        unquoted_.push_back('"');
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter_) {
      break;
    } else if (c != '\r' || i + 1 != n) {
      unquoted_.push_back(c);
    }
  }
  done_ = i >= n;
  pos_ = i + 1;
  field = unquoted_;
  return true;
}

Status NotA(std::string_view type, std::string_view field) {
  return Status::ParseError("not " + std::string(type) + ": '" +
                            std::string(field) + "'");
}

/// std::strtod over the whole field. from_chars reads the common forms
/// without a copy; whatever it rejects or stops short of (leading
/// space, '+', hex, overflow, trailing bytes), and any NaN, whose
/// payload strtod sets its own way, goes to strtod on a NUL-terminated
/// copy. So the text accepted and the value read are strtod's.
std::optional<double> ParseFloat64(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc() && stop == end && !std::isnan(value)) {
    return value;
  }
  const std::string copy(text);
  char* parsed = nullptr;
  value = std::strtod(copy.c_str(), &parsed);
  if (parsed == copy.c_str() || *parsed != '\0') return std::nullopt;
  return value;
}

/// Splits `line` and parses each field as `schema`'s column, in one
/// pass. `empty_is_null` applies to every column; nullopt takes each
/// column's nullability. Returns the number of fields; parsing stops at
/// the first bad field, whose error lands in `error`, but the count
/// runs on, so a wrong count is reported before any field error.
size_t ParseRecord(const Schema& schema, std::string_view line,
                   char delimiter, std::optional<bool> empty_is_null,
                   std::vector<Value>& row, Status& error) {
  const size_t columns = schema.num_fields();
  row.reserve(columns);
  CsvSplitter splitter(line, delimiter);
  size_t count = 0;
  std::string_view text;
  while (splitter.Next(text)) {
    if (count < columns && error.ok()) {
      const Field& field = schema.field(count);
      Result<Value> value = ParseCsvField(
          text, field.type, empty_is_null.value_or(field.nullable));
      if (value.ok()) {
        row.push_back(std::move(value).value());
      } else {
        error = value.status();
      }
    }
    ++count;
  }
  return count;
}

std::string FieldCountError(size_t expected, size_t got) {
  return "expected " + std::to_string(expected) + " fields, got " +
         std::to_string(got);
}

}  // namespace

std::vector<std::string> SplitCsvLine(std::string_view line,
                                      char delimiter) {
  std::vector<std::string> fields;
  // One allocation: every field but the last ends at a delimiter.
  fields.reserve(std::count(line.begin(), line.end(), delimiter) + 1);
  CsvSplitter splitter(line, delimiter);
  std::string_view field;
  while (splitter.Next(field)) fields.emplace_back(field);
  return fields;
}

Result<Value> ParseCsvField(std::string_view field, DataType type,
                            bool empty_is_null) {
  if (field.empty() && empty_is_null && type != DataType::kString) {
    return Value::Null();
  }
  switch (type) {
    case DataType::kInt64: {
      const std::optional<int64_t> v = ParseInteger<int64_t>(field);
      if (!v.has_value()) return NotA("an int64", field);
      return Value::Int64(*v);
    }
    case DataType::kFloat64: {
      const std::optional<double> v = ParseFloat64(field);
      if (!v.has_value()) return NotA("a float64", field);
      return Value::Float64(*v);
    }
    case DataType::kBool: {
      if (EqualsIgnoreCase(field, "true") || field == "1") {
        return Value::Bool(true);
      }
      if (EqualsIgnoreCase(field, "false") || field == "0") {
        return Value::Bool(false);
      }
      return NotA("a bool", field);
    }
    case DataType::kTimestamp: {
      const std::optional<int64_t> v = ParseInteger<int64_t>(field);
      if (!v.has_value()) return NotA("a timestamp", field);
      return Value::TimestampVal(*v);
    }
    case DataType::kString:
      return Value::String(std::string(field));
  }
  return Status::Internal("unhandled type");
}

Result<std::vector<Value>> ParseCsvRow(const Schema& schema,
                                       std::string_view csv) {
  std::vector<Value> row;
  Status error;
  const size_t count =
      ParseRecord(schema, csv, ',', std::nullopt, row, error);
  if (count != schema.num_fields()) {
    return Status::InvalidArgument(
        FieldCountError(schema.num_fields(), count));
  }
  if (!error.ok()) return error;
  return row;
}

CsvSource::CsvSource(std::istream* input, Schema schema, CsvOptions options)
    : input_(input), schema_(std::move(schema)), options_(options) {}

std::optional<std::vector<Value>> CsvSource::Next() {
  if (!status_.ok()) return std::nullopt;
  while (std::getline(*input_, line_)) {
    ++line_number_;
    if (options_.has_header && !header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    if (StripWhitespace(line_).empty()) continue;
    std::vector<Value> record;
    Status error;
    const size_t count = ParseRecord(schema_, line_, options_.delimiter,
                                     options_.empty_is_null, record, error);
    if (count != schema_.num_fields()) {
      error = Status::ParseError(FieldCountError(schema_.num_fields(), count));
    }
    if (!error.ok()) {
      status_ = Status::ParseError("line " + std::to_string(line_number_) +
                                   ": " + error.message());
      return std::nullopt;
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
