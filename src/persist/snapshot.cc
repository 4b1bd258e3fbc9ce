#include "persist/snapshot.h"

#include <fstream>
#include <vector>

#include "core/internal_access.h"

#include "common/trace.h"
#include "storage/encode/encoding.h"
#include "storage/encode/frozen.h"
#include "storage/value_serde.h"

namespace fungusdb {
namespace {

constexpr char kMagic[4] = {'F', 'G', 'D', 'B'};

// Version-3 per-table chunk tags (one chunk per segment, in segment
// order, so the global live-row order matches the version-2 flat list).
constexpr uint8_t kChunkPlain = 0;   // u64 live rows + flat row stream
constexpr uint8_t kChunkFrozen = 1;  // u64 first_row + block + u32 crc
constexpr uint8_t kChunkEnd = 2;

/// Decoded cell of a frozen column, mirroring Segment::GetValue.
Value FrozenCellValue(const encode::FrozenColumn& fc, size_t off) {
  if (fc.IsNull(off)) return Value::Null();
  switch (fc.type) {
    case DataType::kInt64:
      return Value::Int64(fc.ints.Get(off));
    case DataType::kTimestamp:
      return Value::TimestampVal(fc.ints.Get(off));
    case DataType::kFloat64:
      return Value::Float64(fc.doubles[off]);
    case DataType::kString:
      return Value::String(fc.strings.Get(off));
    case DataType::kBool:
      return Value::Bool(fc.bools.Get(off) != 0);
  }
  return Value::Null();
}

void WriteLiveRow(const Segment& seg, size_t off, size_t num_fields,
                  BufferWriter& out) {
  out.WriteI64(seg.InsertTime(off));
  out.WriteDouble(seg.Freshness(off));
  for (size_t c = 0; c < num_fields; ++c) {
    WriteValue(out, seg.GetValue(off, c));
  }
}

void WriteTableChunks(const Table& table, BufferWriter& out,
                      const SnapshotBlockIndex* reuse,
                      IncrementalSnapshotStats* stats) {
  out.WriteString(table.name());
  WriteSchema(out, table.schema());
  out.WriteU64(table.options().rows_per_segment);
  out.WriteBool(table.options().track_access);
  // The retired num_shards slot: always 1 (readers ignore it).
  out.WriteU64(1);
  const size_t num_fields = table.schema().num_fields();
  for (const auto& [seg_no, seg] : table.segments()) {
    if (seg->is_frozen()) {
      // The canonical encoded block goes to disk verbatim. With a base
      // index, an unchanged segment (same identity, same checksum)
      // splices the base file's bytes without re-serializing — the
      // incremental path's whole point. Canonical encoding guarantees
      // both routes produce identical bytes.
      out.WriteU8(kChunkFrozen);
      out.WriteU64(seg->first_row());
      const encode::FrozenSegment& fz = seg->frozen();
      const SnapshotBlockEntry* base = nullptr;
      if (reuse != nullptr) {
        auto it = reuse->find({table.name(), seg->first_row()});
        if (it != reuse->end() && it->second.crc == fz.checksum) {
          base = &it->second;
        }
      }
      if (base != nullptr) {
        out.WriteString(base->payload);
        out.WriteU32(base->crc);
        if (stats != nullptr) ++stats->frozen_blocks_reused;
      } else {
        // The same bytes as WriteString of a serialized copy: a u64
        // length placeholder, the block serialized in place, then the
        // length patched in.
        const size_t length_at = out.size();
        out.WriteU64(0);
        fz.Serialize(out);
        out.PatchU64(length_at, out.size() - length_at - sizeof(uint64_t));
        out.WriteU32(fz.checksum);
        if (stats != nullptr) ++stats->frozen_blocks_rewritten;
      }
      continue;
    }
    if (seg->live_count() == 0) continue;
    out.WriteU8(kChunkPlain);
    out.WriteU64(seg->live_count());
    const size_t n = seg->num_rows();
    for (size_t off = 0; off < n; ++off) {
      if (seg->IsLive(off)) WriteLiveRow(*seg, off, num_fields, out);
    }
    if (stats != nullptr) ++stats->plain_chunks;
  }
  out.WriteU8(kChunkEnd);
}

}  // namespace

void SerializeTable(const Table& table, BufferWriter& out) {
  WriteTableChunks(table, out, nullptr, nullptr);
}

Result<Table> DeserializeTable(BufferReader& in, uint32_t version) {
  FUNGUSDB_ASSIGN_OR_RETURN(std::string name, in.ReadString());
  FUNGUSDB_ASSIGN_OR_RETURN(Schema schema, ReadSchema(in));
  TableOptions options;
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t rows_per_segment, in.ReadU64());
  if (rows_per_segment == 0 || rows_per_segment > (1u << 26)) {
    return Status::ParseError("implausible rows_per_segment");
  }
  options.rows_per_segment = rows_per_segment;
  FUNGUSDB_ASSIGN_OR_RETURN(options.track_access, in.ReadBool());
  // The retired num_shards slot: validated, then ignored. Shards only
  // partitioned the segments, so the rows are the same whatever it says.
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t num_shards, in.ReadU64());
  if (num_shards == 0 || num_shards > (1u << 12)) {
    return Status::ParseError("implausible num_shards");
  }

  Table table(std::move(name), std::move(schema), options);
  const size_t num_fields = table.schema().num_fields();

  auto replay_row = [&](int64_t ts, double freshness,
                        const std::vector<Value>& values) -> Status {
    if (!(freshness > 0.0) || freshness > 1.0) {
      return Status::ParseError("snapshot row with non-live freshness");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(RowId row, table.Append(values, ts));
    return table.SetFreshness(row, freshness);
  };

  auto replay_plain_rows = [&](uint64_t rows) -> Status {
    for (uint64_t r = 0; r < rows; ++r) {
      FUNGUSDB_ASSIGN_OR_RETURN(int64_t ts, in.ReadI64());
      FUNGUSDB_ASSIGN_OR_RETURN(double freshness, in.ReadDouble());
      std::vector<Value> values;
      values.reserve(num_fields);
      for (size_t c = 0; c < num_fields; ++c) {
        FUNGUSDB_ASSIGN_OR_RETURN(Value v, ReadValue(in));
        values.push_back(std::move(v));
      }
      FUNGUSDB_RETURN_IF_ERROR(replay_row(ts, freshness, values));
    }
    return Status::OK();
  };

  if (version <= 2) {
    // Version 2: one flat live-row list per table.
    FUNGUSDB_ASSIGN_OR_RETURN(uint64_t rows, in.ReadU64());
    FUNGUSDB_RETURN_IF_ERROR(replay_plain_rows(rows));
  } else {
    for (;;) {
      FUNGUSDB_ASSIGN_OR_RETURN(uint8_t kind, in.ReadU8());
      if (kind == kChunkEnd) break;
      if (kind == kChunkPlain) {
        FUNGUSDB_ASSIGN_OR_RETURN(uint64_t rows, in.ReadU64());
        if (rows > (uint64_t{1} << 26)) {
          return Status::ParseError("implausible chunk row count");
        }
        FUNGUSDB_RETURN_IF_ERROR(replay_plain_rows(rows));
        continue;
      }
      if (kind != kChunkFrozen) {
        return Status::ParseError("unknown snapshot chunk kind " +
                                  std::to_string(kind));
      }
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t first_row, in.ReadU64());
      (void)first_row;  // identity key for incremental saves, not replay
      FUNGUSDB_ASSIGN_OR_RETURN(std::string payload, in.ReadString());
      FUNGUSDB_ASSIGN_OR_RETURN(uint32_t crc, in.ReadU32());
      if (encode::Crc32(payload) != crc) {
        return Status::ParseError("frozen block checksum mismatch");
      }
      BufferReader block(payload);
      FUNGUSDB_ASSIGN_OR_RETURN(encode::FrozenSegment fz,
                                encode::FrozenSegment::Deserialize(block));
      if (!block.exhausted()) {
        return Status::ParseError("trailing bytes in frozen block");
      }
      if (fz.columns.size() != num_fields) {
        return Status::ParseError("frozen block arity mismatch");
      }
      // Only full segments freeze, so a block spans exactly one
      // segment's rows; anything longer would replay rows no segment
      // could have held.
      if (fz.num_rows != options.rows_per_segment) {
        return Status::ParseError("frozen block row count " +
                                  std::to_string(fz.num_rows) +
                                  " != rows per segment");
      }
      // Replay live rows only — frozen blocks carry their dead rows
      // (the encoding is segment-exact) but snapshots stay compact.
      for (size_t off = 0; off < fz.num_rows; ++off) {
        if (!fz.IsLive(off)) continue;
        std::vector<Value> values;
        values.reserve(num_fields);
        for (size_t c = 0; c < num_fields; ++c) {
          values.push_back(FrozenCellValue(fz.columns[c], off));
        }
        FUNGUSDB_RETURN_IF_ERROR(
            replay_row(fz.ts.Get(off), fz.StoredFreshness(off), values));
      }
    }
  }
  // Replay leaves zone maps widened (every row passed through freshness
  // 1.0); one exact recount restores tight pruning bounds. No snapshot
  // format change — zone maps are always derivable from the rows.
  table.RecomputeZoneMaps();
  return table;
}

void SerializeDatabase(Database& db, BufferWriter& out,
                       const SnapshotBlockIndex* reuse,
                       IncrementalSnapshotStats* stats) {
  out.WriteString(std::string_view(kMagic, sizeof(kMagic)));
  out.WriteU32(kSnapshotVersion);
  out.WriteI64(db.Now());
  out.WriteDouble(db.options().cellar_eviction_threshold);
  out.WriteBool(db.options().record_access);
  const std::vector<std::string> names = db.TableNames();
  out.WriteU64(names.size());
  for (const std::string& name : names) {
    {
      // Materialize-before-write (DESIGN.md §14): fold any pending
      // decay decrements into the rows so the stored vectors equal the
      // effective values the serializer writes, keeping the on-disk
      // format oblivious to lazy decay. Frozen segments materialize in
      // place (and refresh their checksum) without thawing. Mutation
      // outside the facade, so it holds the write lock the accessor
      // requires.
      RwLock::WriteLock write_lock(db.lock());
      internal::DatabaseInternal::MutableTable(db, name)
          .value()
          ->MaterializePendingDecay();
    }
    WriteTableChunks(db.GetTable(name).value().table(), out, reuse, stats);
  }
  db.cellar().Serialize(out);
}

void SerializeDatabase(Database& db, BufferWriter& out) {
  SerializeDatabase(db, out, nullptr, nullptr);
}

Result<std::unique_ptr<Database>> DeserializeDatabase(BufferReader& in) {
  FUNGUSDB_ASSIGN_OR_RETURN(std::string magic, in.ReadString());
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::ParseError("not a FungusDB snapshot (bad magic)");
  }
  FUNGUSDB_ASSIGN_OR_RETURN(uint32_t version, in.ReadU32());
  if (version != 2 && version != kSnapshotVersion) {
    return Status::ParseError("unsupported snapshot version " +
                              std::to_string(version));
  }
  DatabaseOptions options;
  FUNGUSDB_ASSIGN_OR_RETURN(options.start_time, in.ReadI64());
  FUNGUSDB_ASSIGN_OR_RETURN(options.cellar_eviction_threshold,
                            in.ReadDouble());
  FUNGUSDB_ASSIGN_OR_RETURN(options.record_access, in.ReadBool());
  auto db = std::make_unique<Database>(options);

  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t num_tables, in.ReadU64());
  for (uint64_t i = 0; i < num_tables; ++i) {
    FUNGUSDB_ASSIGN_OR_RETURN(Table loaded, DeserializeTable(in, version));
    FUNGUSDB_RETURN_IF_ERROR(
        db->CreateTable(loaded.name(), loaded.schema(), loaded.options())
            .status());
    // The replay below mutates the table outside the facade, so it
    // holds the write lock the internal accessor requires (after
    // CreateTable returns — its own write section must drain).
    RwLock::WriteLock write_lock(db->lock());
    FUNGUSDB_ASSIGN_OR_RETURN(
        Table * created,
        internal::DatabaseInternal::MutableTable(*db, loaded.name()));
    // Move the loaded contents into the database-owned table by
    // replaying its live rows (Table is move-only but the database owns
    // its tables; replay keeps the ownership story simple).
    Status replay_status;
    loaded.ForEachLive([&](RowId row) {
      if (!replay_status.ok()) return;
      std::vector<Value> values;
      values.reserve(loaded.schema().num_fields());
      for (size_t c = 0; c < loaded.schema().num_fields(); ++c) {
        values.push_back(loaded.GetValue(row, c).value());
      }
      Result<RowId> appended =
          created->Append(values, loaded.InsertTime(row).value());
      if (!appended.ok()) {
        replay_status = appended.status();
        return;
      }
      replay_status =
          created->SetFreshness(*appended, loaded.Freshness(row));
    });
    FUNGUSDB_RETURN_IF_ERROR(replay_status);
    created->RecomputeZoneMaps();
  }
  FUNGUSDB_RETURN_IF_ERROR(db->cellar().DeserializeInto(in));
  if (!in.exhausted()) {
    return Status::ParseError("trailing bytes after snapshot");
  }
  return db;
}

Result<SnapshotBlockIndex> IndexSnapshotBlocks(const std::string& data) {
  BufferReader in(data);
  FUNGUSDB_ASSIGN_OR_RETURN(std::string magic, in.ReadString());
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::ParseError("not a FungusDB snapshot (bad magic)");
  }
  FUNGUSDB_ASSIGN_OR_RETURN(uint32_t version, in.ReadU32());
  if (version != kSnapshotVersion) {
    return Status::ParseError("base snapshot is not version " +
                              std::to_string(kSnapshotVersion));
  }
  FUNGUSDB_RETURN_IF_ERROR(in.ReadI64().status());
  FUNGUSDB_RETURN_IF_ERROR(in.ReadDouble().status());
  FUNGUSDB_RETURN_IF_ERROR(in.ReadBool().status());
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t num_tables, in.ReadU64());
  SnapshotBlockIndex index;
  for (uint64_t t = 0; t < num_tables; ++t) {
    FUNGUSDB_ASSIGN_OR_RETURN(std::string name, in.ReadString());
    FUNGUSDB_ASSIGN_OR_RETURN(Schema schema, ReadSchema(in));
    FUNGUSDB_RETURN_IF_ERROR(in.ReadU64().status());  // rows_per_segment
    FUNGUSDB_RETURN_IF_ERROR(in.ReadBool().status());  // track_access
    FUNGUSDB_RETURN_IF_ERROR(in.ReadU64().status());  // retired num_shards
    for (;;) {
      FUNGUSDB_ASSIGN_OR_RETURN(uint8_t kind, in.ReadU8());
      if (kind == kChunkEnd) break;
      if (kind == kChunkPlain) {
        FUNGUSDB_ASSIGN_OR_RETURN(uint64_t rows, in.ReadU64());
        if (rows > (uint64_t{1} << 26)) {
          return Status::ParseError("implausible chunk row count");
        }
        for (uint64_t r = 0; r < rows; ++r) {
          FUNGUSDB_RETURN_IF_ERROR(in.ReadI64().status());
          FUNGUSDB_RETURN_IF_ERROR(in.ReadDouble().status());
          for (size_t c = 0; c < schema.num_fields(); ++c) {
            FUNGUSDB_RETURN_IF_ERROR(ReadValue(in).status());
          }
        }
        continue;
      }
      if (kind != kChunkFrozen) {
        return Status::ParseError("unknown snapshot chunk kind " +
                                  std::to_string(kind));
      }
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t first_row, in.ReadU64());
      FUNGUSDB_ASSIGN_OR_RETURN(std::string payload, in.ReadString());
      FUNGUSDB_ASSIGN_OR_RETURN(uint32_t crc, in.ReadU32());
      if (encode::Crc32(payload) != crc) {
        return Status::ParseError("frozen block checksum mismatch");
      }
      index[{name, first_row}] = SnapshotBlockEntry{crc, std::move(payload)};
    }
  }
  // The cellar trails the tables; the index does not need it.
  return index;
}

Status SaveDatabaseSnapshot(Database& db, const std::string& path) {
  FUNGUS_TRACE_SPAN("snapshot.save");
  BufferWriter out;
  SerializeDatabase(db, out);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  file.write(out.buffer().data(),
             static_cast<std::streamsize>(out.size()));
  file.flush();
  if (!file) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<IncrementalSnapshotStats> SaveIncrementalSnapshot(
    Database& db, const std::string& path, const std::string& base_path) {
  FUNGUS_TRACE_SPAN("snapshot.save_incremental");
  std::ifstream base_file(base_path, std::ios::binary);
  if (!base_file) {
    return Status::NotFound("cannot open base snapshot '" + base_path + "'");
  }
  std::string base_data((std::istreambuf_iterator<char>(base_file)),
                        std::istreambuf_iterator<char>());
  FUNGUSDB_ASSIGN_OR_RETURN(SnapshotBlockIndex index,
                            IndexSnapshotBlocks(base_data));
  IncrementalSnapshotStats stats;
  BufferWriter out;
  SerializeDatabase(db, out, &index, &stats);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  file.write(out.buffer().data(),
             static_cast<std::streamsize>(out.size()));
  file.flush();
  if (!file) {
    return Status::Internal("short write to '" + path + "'");
  }
  return stats;
}

Result<std::unique_ptr<Database>> LoadDatabaseSnapshot(
    const std::string& path) {
  FUNGUS_TRACE_SPAN("snapshot.load");
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  BufferReader reader(data);
  return DeserializeDatabase(reader);
}

}  // namespace fungusdb
