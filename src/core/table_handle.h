#ifndef FUNGUSDB_CORE_TABLE_HANDLE_H_
#define FUNGUSDB_CORE_TABLE_HANDLE_H_

#include <cstdint>
#include <string>

#include "storage/table.h"

namespace fungusdb {

/// Non-owning, read-only view of a table registered in a Database —
/// what CreateTable/GetTable hand out instead of a mutable Table*.
/// Exposes identity (name, schema, options) and statistics; every
/// mutation goes through the Database facade (Insert, ExecuteSql,
/// AttachFungus, ...) so the single virtual timeline stays in charge.
///
/// A handle is valid until its table is dropped or the Database is
/// destroyed; it is trivially copyable and cheap to pass by value.
class TableHandle {
 public:
  TableHandle() = default;

  bool valid() const { return table_ != nullptr; }

  const std::string& name() const { return table_->name(); }
  const Schema& schema() const { return table_->schema(); }
  const TableOptions& options() const { return table_->options(); }

  // --- Statistics (the table's own counters). ---
  uint64_t live_rows() const { return table_->live_rows(); }
  uint64_t total_appended() const { return table_->total_appended(); }
  uint64_t rows_killed() const { return table_->rows_killed(); }
  size_t num_segments() const { return table_->num_segments(); }
  size_t memory_bytes() const { return table_->MemoryUsage(); }

  /// Tiered-storage occupancy (frozen segments, encoded bytes, ...).
  /// The supported way for out-of-core observers (HTTP handlers, CLIs)
  /// to read storage state without touching Table internals.
  StorageStats storage_stats() const { return table_->GetStorageStats(); }

  /// Read-only access for in-process utilities that walk tuples
  /// (column statistics, CSV export). Const: mutations must flow
  /// through the Database facade.
  const Table& table() const { return *table_; }

 private:
  friend class Database;
  explicit TableHandle(Table* table) : table_(table) {}

  Table* table_ = nullptr;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_TABLE_HANDLE_H_
