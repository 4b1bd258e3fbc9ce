#include "core/database.h"

namespace fungusdb::server {

// The clean spelling of http_rogue.cc: database reads go through the
// read-locked facade and the public stats structs only.
uint64_t CleanSegmentCount(Database& db, const std::string& name) {
  RwLock::ReadLock read_lock(db.lock());
  Result<TableHandle> handle = db.GetTable(name);
  if (!handle.ok()) return 0;
  return handle->storage_stats().total_segments;
}

}  // namespace fungusdb::server
