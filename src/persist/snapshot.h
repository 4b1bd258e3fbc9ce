#ifndef FUNGUSDB_PERSIST_SNAPSHOT_H_
#define FUNGUSDB_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/buffer_io.h"
#include "common/result.h"
#include "core/database.h"
#include "storage/table.h"

namespace fungusdb {

/// Snapshot format version written by SerializeDatabase. Version 2
/// added a per-table shard-count slot (retired: written as 1, read and
/// ignored); version 3 replaced the flat live-row list with per-segment
/// chunks so frozen segments persist as their canonical encoded block
/// (with a per-block CRC-32) and incremental snapshots can splice
/// unchanged blocks from a base file. Readers accept versions 2 and 3.
inline constexpr uint32_t kSnapshotVersion = 3;

/// One frozen-segment block of a parsed snapshot: its canonical encoded
/// payload and the CRC-32 stored next to it.
struct SnapshotBlockEntry {
  uint32_t crc = 0;
  std::string payload;
};

/// Frozen blocks of a snapshot file keyed by (table name, first row) —
/// the stable identity of a segment across snapshots of one database.
using SnapshotBlockIndex =
    std::map<std::pair<std::string, uint64_t>, SnapshotBlockEntry>;

/// Bookkeeping from an incremental save: how many frozen blocks were
/// spliced verbatim from the base file versus re-encoded because the
/// segment was dirty, thawed, or new.
struct IncrementalSnapshotStats {
  uint64_t frozen_blocks_reused = 0;
  uint64_t frozen_blocks_rewritten = 0;
  uint64_t plain_chunks = 0;
};

/// Appends a table snapshot: schema, options, and every *live* tuple
/// with its insertion time and freshness. Snapshots compact: tombstoned
/// and reclaimed tuples are not written (a frozen block carries its
/// dead rows, but they are skipped on load), row ids are reassigned
/// densely on load, and per-tuple access counters reset. Fungus state
/// (e.g. EGI's infection set) is never part of a snapshot — fungi are
/// code, re-attached by the application after restore. The caller must
/// have materialized pending decay (SerializeDatabase does).
void SerializeTable(const Table& table, BufferWriter& out);

/// Restores a table written by SerializeTable() at `version` (the
/// database framing carries it; direct callers get the current one).
Result<Table> DeserializeTable(BufferReader& in,
                               uint32_t version = kSnapshotVersion);

/// Saves the whole database — virtual clock, every table, and the
/// cellar (summaries with their decay state) — to `path`. The format is
/// versioned ("FGDB") and restore is all-or-nothing.
Status SaveDatabaseSnapshot(Database& db, const std::string& path);

/// Saves a full, self-contained snapshot of `db` to `path`, splicing
/// frozen-segment blocks verbatim from the version-3 snapshot at
/// `base_path` whenever the in-memory checksum still matches — only
/// dirty, thawed, or new segments are re-encoded. The output is
/// byte-identical to SaveDatabaseSnapshot's.
Result<IncrementalSnapshotStats> SaveIncrementalSnapshot(
    Database& db, const std::string& path, const std::string& base_path);

/// Loads a snapshot written by SaveDatabaseSnapshot(). The returned
/// database has the saved virtual time and data, but no fungi and no
/// cook specs — re-attach those before advancing time. All segments
/// load into the plain tier; the freeze policy re-freezes cold ones.
Result<std::unique_ptr<Database>> LoadDatabaseSnapshot(
    const std::string& path);

/// In-memory variants (used by the file functions and by tests). The
/// three-argument SerializeDatabase threads an optional block-reuse
/// index and stats sink for incremental saves.
void SerializeDatabase(Database& db, BufferWriter& out);
void SerializeDatabase(Database& db, BufferWriter& out,
                       const SnapshotBlockIndex* reuse,
                       IncrementalSnapshotStats* stats);
Result<std::unique_ptr<Database>> DeserializeDatabase(BufferReader& in);

/// Parses the chunk structure of a version-3 snapshot and returns its
/// frozen blocks (payload + stored CRC) keyed by (table, first row).
/// Rejects version-2 files — they have no blocks to reuse.
Result<SnapshotBlockIndex> IndexSnapshotBlocks(const std::string& data);

}  // namespace fungusdb

#endif  // FUNGUSDB_PERSIST_SNAPSHOT_H_
