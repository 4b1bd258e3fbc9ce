#ifndef FUNGUSDB_STORAGE_VALUE_SERDE_H_
#define FUNGUSDB_STORAGE_VALUE_SERDE_H_

#include "common/buffer_io.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fungusdb {

/// Binary encoding of a single Value: 1-byte type tag (0 = null) +
/// payload. Used by the snapshot and journal formats and by wire
/// result sets.
void WriteValue(BufferWriter& out, const Value& value);
Result<Value> ReadValue(BufferReader& in);

/// Binary encoding of a schema: field count + (name, type, nullable).
void WriteSchema(BufferWriter& out, const Schema& schema);
Result<Schema> ReadSchema(BufferReader& in);

}  // namespace fungusdb

#endif  // FUNGUSDB_STORAGE_VALUE_SERDE_H_
