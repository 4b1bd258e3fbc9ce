#ifndef FUNGUSDB_QUERY_RESULT_SET_SERDE_H_
#define FUNGUSDB_QUERY_RESULT_SET_SERDE_H_

#include <cstdint>
#include <string_view>

#include "common/buffer_io.h"
#include "common/result.h"
#include "query/result_set.h"

namespace fungusdb {

/// Binary encoding of a query answer for the wire protocol: column
/// names, row-major values (storage/value_serde encoding), and the
/// execution statistics. The layout is covered by the frozen-format
/// tests in tests/server/wire_format_test.cc — changing it requires a
/// wire protocol version bump.
void SerializeResultSet(const ResultSet& result, BufferWriter& out);

/// Writes exactly what SerializeResultSet writes for a one-column,
/// one-row answer holding the int64 `value` with zero statistics (an
/// `\insert`'s row id), without building that ResultSet.
void SerializeInt64Answer(std::string_view column, int64_t value,
                          BufferWriter& out);

/// Decodes a result set written by SerializeResultSet(). All reads are
/// bounds-checked; truncation and absurd counts surface as Status
/// errors, never as unbounded allocation.
Result<ResultSet> DeserializeResultSet(BufferReader& in);

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_RESULT_SET_SERDE_H_
