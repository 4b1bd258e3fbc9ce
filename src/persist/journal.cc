#include "persist/journal.h"

#include <fstream>

#include "common/buffer_io.h"
#include "common/trace.h"
#include "query/parser.h"
#include "storage/value_serde.h"
#include "summary/hashing.h"

namespace fungusdb {
namespace {

/// Payload encoding of one entry (without the frame).
std::string EncodeEntry(const JournalEntry& entry) {
  BufferWriter out;
  out.WriteU8(static_cast<uint8_t>(entry.kind));
  switch (entry.kind) {
    case JournalEntry::Kind::kCreateTable:
      out.WriteString(entry.table_name);
      WriteSchema(out, entry.schema);
      out.WriteU64(entry.table_options.rows_per_segment);
      out.WriteBool(entry.table_options.track_access);
      out.WriteU64(1);  // the retired num_shards slot; readers ignore it
      break;
    case JournalEntry::Kind::kDropTable:
      out.WriteString(entry.table_name);
      break;
    case JournalEntry::Kind::kInsert:
      out.WriteString(entry.table_name);
      out.WriteU64(entry.values.size());
      for (const Value& v : entry.values) WriteValue(out, v);
      break;
    case JournalEntry::Kind::kAdvanceTime:
      out.WriteI64(entry.advance);
      break;
    case JournalEntry::Kind::kSql:
      out.WriteString(entry.sql);
      break;
  }
  return out.Release();
}

Result<JournalEntry> DecodeEntry(std::string_view payload) {
  BufferReader in(payload);
  JournalEntry entry;
  FUNGUSDB_ASSIGN_OR_RETURN(uint8_t kind, in.ReadU8());
  if (kind < 1 || kind > 5) {
    return Status::ParseError("unknown journal entry kind");
  }
  entry.kind = static_cast<JournalEntry::Kind>(kind);
  switch (entry.kind) {
    case JournalEntry::Kind::kCreateTable: {
      FUNGUSDB_ASSIGN_OR_RETURN(entry.table_name, in.ReadString());
      FUNGUSDB_ASSIGN_OR_RETURN(entry.schema, ReadSchema(in));
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t rows, in.ReadU64());
      if (rows == 0 || rows > (1u << 24)) {
        return Status::ParseError("implausible rows_per_segment");
      }
      entry.table_options.rows_per_segment = rows;
      FUNGUSDB_ASSIGN_OR_RETURN(entry.table_options.track_access,
                                in.ReadBool());
      // The retired num_shards slot: validated, then ignored.
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t num_shards, in.ReadU64());
      if (num_shards == 0 || num_shards > (1u << 12)) {
        return Status::ParseError("implausible num_shards");
      }
      break;
    }
    case JournalEntry::Kind::kDropTable: {
      FUNGUSDB_ASSIGN_OR_RETURN(entry.table_name, in.ReadString());
      break;
    }
    case JournalEntry::Kind::kInsert: {
      FUNGUSDB_ASSIGN_OR_RETURN(entry.table_name, in.ReadString());
      FUNGUSDB_ASSIGN_OR_RETURN(uint64_t count, in.ReadU64());
      for (uint64_t i = 0; i < count; ++i) {
        FUNGUSDB_ASSIGN_OR_RETURN(Value v, ReadValue(in));
        entry.values.push_back(std::move(v));
      }
      break;
    }
    case JournalEntry::Kind::kAdvanceTime: {
      FUNGUSDB_ASSIGN_OR_RETURN(entry.advance, in.ReadI64());
      break;
    }
    case JournalEntry::Kind::kSql: {
      FUNGUSDB_ASSIGN_OR_RETURN(entry.sql, in.ReadString());
      break;
    }
  }
  if (!in.exhausted()) {
    return Status::ParseError("trailing bytes in journal entry");
  }
  return entry;
}

}  // namespace

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Internal("cannot open journal '" + path + "'");
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(file));
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status JournalWriter::Append(const JournalEntry& entry) {
  FUNGUS_TRACE_SPAN("journal.append");
  const std::string payload = EncodeEntry(entry);
  BufferWriter frame;
  frame.WriteU32(static_cast<uint32_t>(payload.size()));
  frame.WriteU64(HashBytes(payload.data(), payload.size(), /*seed=*/0));
  const std::string& header = frame.buffer();
  if (std::fwrite(header.data(), 1, header.size(), file_) !=
          header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::Internal("journal write failed");
  }
  ++entries_written_;
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (std::fflush(file_) != 0) {
    return Status::Internal("journal flush failed");
  }
  return Status::OK();
}

Result<std::unique_ptr<JournalReader>> JournalReader::Open(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open journal '" + path + "'");
  }
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  return std::unique_ptr<JournalReader>(
      new JournalReader(std::move(data)));
}

std::unique_ptr<JournalReader> JournalReader::FromBytes(std::string data) {
  return std::unique_ptr<JournalReader>(
      new JournalReader(std::move(data)));
}

JournalReader::~JournalReader() = default;

std::optional<JournalEntry> JournalReader::Next() {
  if (pos_ >= data_.size()) return std::nullopt;
  // Frame: u32 length + u64 checksum + payload.
  constexpr size_t kHeader = sizeof(uint32_t) + sizeof(uint64_t);
  if (data_.size() - pos_ < kHeader) {
    truncated_ = true;
    pos_ = data_.size();
    return std::nullopt;
  }
  BufferReader header(std::string_view(data_).substr(pos_, kHeader));
  const uint32_t length = header.ReadU32().value();
  const uint64_t checksum = header.ReadU64().value();
  if (data_.size() - pos_ - kHeader < length) {
    truncated_ = true;
    pos_ = data_.size();
    return std::nullopt;
  }
  const std::string_view payload =
      std::string_view(data_).substr(pos_ + kHeader, length);
  if (HashBytes(payload.data(), payload.size(), /*seed=*/0) != checksum) {
    truncated_ = true;
    pos_ = data_.size();
    return std::nullopt;
  }
  Result<JournalEntry> entry = DecodeEntry(payload);
  if (!entry.ok()) {
    truncated_ = true;
    pos_ = data_.size();
    return std::nullopt;
  }
  pos_ += kHeader + length;
  return std::move(entry).value();
}

Result<std::unique_ptr<JournaledDatabase>> JournaledDatabase::Open(
    DatabaseOptions options, const std::string& journal_path) {
  FUNGUSDB_ASSIGN_OR_RETURN(std::unique_ptr<JournalWriter> journal,
                            JournalWriter::Open(journal_path));
  return std::unique_ptr<JournaledDatabase>(
      new JournaledDatabase(options, std::move(journal)));
}

Result<TableHandle> JournaledDatabase::CreateTable(
    const std::string& name, Schema schema, TableOptions table_options) {
  FUNGUSDB_ASSIGN_OR_RETURN(TableHandle table,
                            db_.CreateTable(name, schema, table_options));
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kCreateTable;
  entry.table_name = name;
  entry.schema = std::move(schema);
  entry.table_options = table_options;
  FUNGUSDB_RETURN_IF_ERROR(journal_->Append(entry));
  return table;
}

Status JournaledDatabase::DropTable(const std::string& name) {
  FUNGUSDB_RETURN_IF_ERROR(db_.DropTable(name));
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kDropTable;
  entry.table_name = name;
  return journal_->Append(entry);
}

Result<RowId> JournaledDatabase::Insert(const std::string& table_name,
                                        const std::vector<Value>& values) {
  FUNGUSDB_ASSIGN_OR_RETURN(RowId row, db_.Insert(table_name, values));
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kInsert;
  entry.table_name = table_name;
  entry.values = values;
  FUNGUSDB_RETURN_IF_ERROR(journal_->Append(entry));
  return row;
}

Result<uint64_t> JournaledDatabase::AdvanceTime(Duration d) {
  FUNGUSDB_ASSIGN_OR_RETURN(uint64_t ticks, db_.AdvanceTime(d));
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kAdvanceTime;
  entry.advance = d;
  FUNGUSDB_RETURN_IF_ERROR(journal_->Append(entry));
  return ticks;
}

Result<ResultSet> JournaledDatabase::ExecuteSql(std::string_view sql) {
  // Parse first so only statements that actually mutate are journaled.
  FUNGUSDB_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  FUNGUSDB_ASSIGN_OR_RETURN(ResultSet rs, db_.Execute(query, sql));
  if (query.consuming) {
    JournalEntry entry;
    entry.kind = JournalEntry::Kind::kSql;
    entry.sql = std::string(sql);
    FUNGUSDB_RETURN_IF_ERROR(journal_->Append(entry));
  }
  return rs;
}

Result<uint64_t> ReplayJournal(Database& db, const std::string& path) {
  FUNGUS_TRACE_SPAN("journal.replay");
  FUNGUSDB_ASSIGN_OR_RETURN(std::unique_ptr<JournalReader> reader,
                            JournalReader::Open(path));
  uint64_t applied = 0;
  while (std::optional<JournalEntry> entry = reader->Next()) {
    switch (entry->kind) {
      case JournalEntry::Kind::kCreateTable:
        FUNGUSDB_RETURN_IF_ERROR(
            db.CreateTable(entry->table_name, entry->schema,
                           entry->table_options)
                .status());
        break;
      case JournalEntry::Kind::kDropTable:
        FUNGUSDB_RETURN_IF_ERROR(db.DropTable(entry->table_name));
        break;
      case JournalEntry::Kind::kInsert:
        FUNGUSDB_RETURN_IF_ERROR(
            db.Insert(entry->table_name, entry->values).status());
        break;
      case JournalEntry::Kind::kAdvanceTime:
        FUNGUSDB_RETURN_IF_ERROR(db.AdvanceTime(entry->advance).status());
        break;
      case JournalEntry::Kind::kSql:
        FUNGUSDB_RETURN_IF_ERROR(db.ExecuteSql(entry->sql).status());
        break;
    }
    ++applied;
  }
  return applied;
}

}  // namespace fungusdb
