// Fuzz target: CSV ingestion. Arbitrary bytes stream through CsvSource
// against a schema covering every column type; malformed records must
// stop the stream with a ParseError, never crash. Then a differential:
// the `\insert` row parser (ParseInsertRow) and CsvSource read the same
// lines against an all-nullable schema, where both turn an empty field
// into NULL, and must agree on each line — the same values, or the same
// error (CsvSource's carries a "line N: " prefix and is a ParseError).

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "core/database.h"
#include "core/meta_commands.h"
#include "pipeline/csv.h"

namespace {

using fungusdb::DataType;
using fungusdb::Value;

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat64) {
    // Bitwise, so a NaN equals the NaN it was parsed as.
    return std::bit_cast<uint64_t>(a.AsFloat64()) ==
           std::bit_cast<uint64_t>(b.AsFloat64());
  }
  return a.Equals(b);
}

void CheckRowParserAgreesWithCsvSource(const std::string& input) {
  static fungusdb::Database db;
  static const bool created =
      db.CreateTable("t",
                     fungusdb::Schema::Make({{"i", DataType::kInt64, true},
                                             {"f", DataType::kFloat64, true},
                                             {"s", DataType::kString, true},
                                             {"b", DataType::kBool, true},
                                             {"t", DataType::kTimestamp, true}})
                         .value())
          .ok();
  if (!created) __builtin_trap();
  const fungusdb::Result<fungusdb::TableHandle> table = db.GetTable("t");

  std::istringstream stream(input);
  fungusdb::CsvOptions options;
  options.has_header = false;
  fungusdb::CsvSource source(&stream, table->schema(), options);
  std::string_view rest(input);
  uint64_t line_number = 0;
  while (!rest.empty()) {
    const size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view()
                                             : rest.substr(newline + 1);
    ++line_number;
    if (fungusdb::StripWhitespace(line).empty()) continue;  // both skip
    const fungusdb::Result<std::vector<Value>> row =
        fungusdb::ParseInsertRow({"t", line}, table);
    const std::optional<std::vector<Value>> record = source.Next();
    if (!row.ok()) {
      if (record.has_value() ||
          source.status().code() != fungusdb::StatusCode::kParseError ||
          source.status().message() != "line " +
                                           std::to_string(line_number) +
                                           ": " + row.status().message()) {
        __builtin_trap();
      }
      return;  // CsvSource stops at its first bad line
    }
    if (!record.has_value() || record->size() != row->size()) {
      __builtin_trap();
    }
    for (size_t i = 0; i < row->size(); ++i) {
      if (!SameValue((*row)[i], (*record)[i])) __builtin_trap();
    }
  }
  if (source.Next().has_value() || !source.status().ok()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 18)) return 0;
  const std::string input(reinterpret_cast<const char*>(data), size);

  static const fungusdb::Schema schema =
      fungusdb::Schema::Make({{"i", fungusdb::DataType::kInt64, false},
                              {"f", fungusdb::DataType::kFloat64, true},
                              {"s", fungusdb::DataType::kString, true},
                              {"b", fungusdb::DataType::kBool, true},
                              {"t", fungusdb::DataType::kTimestamp, true}})
          .value();

  std::istringstream stream(input);
  fungusdb::CsvSource source(&stream, schema);
  while (source.Next().has_value()) {
  }
  // After the stream dries, status() is either OK (end of input) or a
  // ParseError; both are valid outcomes for garbage input.
  if (!source.status().ok() &&
      source.status().code() != fungusdb::StatusCode::kParseError) {
    __builtin_trap();
  }

  CheckRowParserAgreesWithCsvSource(input);
  return 0;
}
