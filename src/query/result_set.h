#ifndef FUNGUSDB_QUERY_RESULT_SET_H_
#define FUNGUSDB_QUERY_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"

namespace fungusdb {

/// Materialized query answer — the paper's answer set A. Plain data:
/// column names plus row-major values, with execution statistics.
struct ResultSet {
  struct Stats {
    uint64_t rows_scanned = 0;   // live tuples visited
    uint64_t rows_matched = 0;   // tuples satisfying P
    uint64_t rows_consumed = 0;  // tuples removed from R (Law 2)
    // Wire protocol v1 carries only the three counters above; the
    // fields below stay local to the process.
    uint64_t rows_pruned = 0;      // live tuples skipped via zone maps
    uint64_t segments_pruned = 0;  // segments skipped via zone maps
    uint64_t segments_scanned = 0;  // segments surviving pruning
    // The published epoch the statement read: the pinned one on a
    // Session, the one the write section started from on the writer.
    uint64_t epoch = 0;
  };

  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;
  Stats stats;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return column_names.size(); }

  const Value& at(size_t row, size_t col) const { return rows[row][col]; }

  /// Column index by name, or -1.
  int FindColumn(const std::string& name) const;

  /// Pretty-printed table, truncated to `max_rows` data rows.
  std::string ToString(size_t max_rows = 20) const;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_RESULT_SET_H_
