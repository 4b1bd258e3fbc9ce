// Fuzz target: SQL lexer, parser, binder and engine. Any byte sequence
// must either parse into a Query or fail with a clean Status; a parsed
// statement is then bound and executed against a fresh small table —
// plain and frozen segments, NULLs, NaN, -0.0, INT64_MIN/MAX, a dead
// row — and must answer or fail with a clean Status, never crash, hang
// or trip a sanitizer. Run serially and on a 2-wide pool (each over its
// own fresh table, since CONSUME kills rows), the statement must answer
// or fail alike, with the same number of rows.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>

#include "common/thread_pool.h"
#include "query/engine.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "storage/table.h"

namespace {

using fungusdb::DataType;
using fungusdb::Value;

/// 13 rows in 4-row segments: the first two segments frozen, the rest
/// plain (one full, one partial). Columns a int64, b string, c float64,
/// ts timestamp, d bool; all but ts nullable.
std::unique_ptr<fungusdb::Table> MakeTable() {
  fungusdb::TableOptions options;
  options.rows_per_segment = 4;
  auto table = std::make_unique<fungusdb::Table>(
      "t",
      fungusdb::Schema::Make({{"a", DataType::kInt64, true},
                              {"b", DataType::kString, true},
                              {"c", DataType::kFloat64, true},
                              {"ts", DataType::kTimestamp, false},
                              {"d", DataType::kBool, true}})
          .value(),
      options);
  const Value ints[] = {Value::Int64(INT64_MIN), Value::Int64(INT64_MAX),
                        Value::Int64(0),         Value::Int64(-1),
                        Value::Null(),           Value::Int64(7)};
  const Value strings[] = {Value::String("x"), Value::String("Y"),
                           Value::String(""), Value::Null()};
  const Value floats[] = {Value::Float64(std::nan("")),
                          Value::Float64(-0.0),
                          Value::Float64(1.5),
                          Value::Null(),
                          Value::Float64(
                              std::numeric_limits<double>::infinity())};
  const Value bools[] = {Value::Bool(true), Value::Null(),
                         Value::Bool(false)};
  auto append = [&](int from, int to) {
    for (int r = from; r < to; ++r) {
      FUNGUSDB_CHECK_OK(
          table
              ->Append({ints[r % 6], strings[r % 4], floats[r % 5],
                        Value::TimestampVal(r * 50), bools[r % 3]},
                       /*now=*/r * 50)
              .status());
    }
  };
  append(0, 8);
  FUNGUSDB_CHECK_OK(table->SetFreshness(1, 0.5));
  FUNGUSDB_CHECK_OK(table->Kill(2));
  table->FreezeColdSegments(0);
  append(8, 13);
  return table;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;  // longer inputs add no new paths
  const std::string_view sql(reinterpret_cast<const char*>(data), size);

  fungusdb::Result<std::vector<fungusdb::Token>> tokens =
      fungusdb::Tokenize(sql);
  fungusdb::Result<fungusdb::Query> query = fungusdb::ParseQuery(sql);
  // A parse can only succeed on lexable input.
  if (query.ok() && !tokens.ok()) __builtin_trap();
  if (!query.ok()) return 0;

  static fungusdb::ThreadPool pool(2);
  fungusdb::QueryEngineOptions pooled_options;
  pooled_options.pool = &pool;
  pooled_options.parallel_scan_min_segments = 2;
  const std::unique_ptr<fungusdb::Table> serial_table = MakeTable();
  const std::unique_ptr<fungusdb::Table> pooled_table = MakeTable();
  const fungusdb::Result<fungusdb::ResultSet> serial =
      fungusdb::QueryEngine().Execute(*query, *serial_table, 1000);
  const fungusdb::Result<fungusdb::ResultSet> pooled =
      fungusdb::QueryEngine(pooled_options)
          .Execute(*query, *pooled_table, 1000);
  if (serial.ok() != pooled.ok()) __builtin_trap();
  if (serial.ok() && serial->num_rows() != pooled->num_rows()) {
    __builtin_trap();
  }
  return 0;
}
