#ifndef FUNGUSDB_PIPELINE_CSV_H_
#define FUNGUSDB_PIPELINE_CSV_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "pipeline/source.h"
#include "query/result_set.h"
#include "storage/table.h"

namespace fungusdb {

struct CsvOptions {
  char delimiter = ',';

  /// Skip the first line of input / emit a header line on output.
  bool has_header = true;

  /// On input: empty fields become null (fails on non-nullable
  /// columns). On output: nulls become empty fields.
  bool empty_is_null = true;
};

/// Streams CSV rows as records conforming to `schema`. Fields are
/// converted by column type (int64/float64/bool/timestamp/string);
/// quoted fields follow RFC 4180 ("" escapes a quote). The source stops
/// at end of input or at the first malformed record — check status()
/// after the stream dries to distinguish the two.
class CsvSource : public RecordSource {
 public:
  /// `input` must outlive the source.
  CsvSource(std::istream* input, Schema schema, CsvOptions options = {});

  const Schema& schema() const override { return schema_; }
  std::optional<std::vector<Value>> Next() override;

  /// OK while healthy; a ParseError (with line number) after a
  /// malformed record stopped the stream.
  const Status& status() const { return status_; }

  /// Records produced so far.
  uint64_t records_read() const { return records_read_; }

 private:
  std::istream* input_;
  Schema schema_;
  CsvOptions options_;
  Status status_;
  std::string line_;
  uint64_t line_number_ = 0;
  bool header_skipped_ = false;
  uint64_t records_read_ = 0;
};

/// Splits one CSV line into fields: RFC 4180 quoting (a quote may open
/// anywhere in a field, a quoted span may hold the delimiter, `""`
/// inside it is one quote, an unterminated quote runs to the end of the
/// line), and a final '\r' outside quotes is dropped, so CRLF input
/// reads like LF. For tests and tooling; the parsers below read the
/// same splitter's fields as views, without copying them.
std::vector<std::string> SplitCsvLine(std::string_view line,
                                      char delimiter);

/// Parses one CSV field into a Value of the given type; empty fields
/// become null when `empty_is_null`. The text accepted is exactly
/// std::from_chars's for integers and std::strtod's (whole field) for
/// floats; a rejected field is a ParseError quoting it ("not a
/// float64: '2.5 '").
Result<Value> ParseCsvField(std::string_view field, DataType type,
                            bool empty_is_null);

/// Parses one comma-separated record into typed values against
/// `schema`: the row of an `\insert`. An empty field is null on a
/// nullable column. A wrong field count is InvalidArgument
/// ("expected N fields, got M"); a bad field is ParseCsvField's error.
Result<std::vector<Value>> ParseCsvRow(const Schema& schema,
                                       std::string_view csv);

/// Renders one value as a CSV field (quoting strings that need it).
std::string FormatCsvField(const Value& value, char delimiter);

/// Writes the live rows of `table` (user columns, plus `__ts` and
/// `__freshness` when `include_system_columns`).
Status WriteCsv(const Table& table, std::ostream& out,
                CsvOptions options = {},
                bool include_system_columns = false);

/// Writes a query answer.
Status WriteCsv(const ResultSet& result, std::ostream& out,
                CsvOptions options = {});

}  // namespace fungusdb

#endif  // FUNGUSDB_PIPELINE_CSV_H_
