#include "persist/journal.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fungus/retention_fungus.h"
#include "summary/hashing.h"

namespace fungusdb {
namespace {

Schema EventSchema() {
  return Schema::Make({{"k", DataType::kInt64, false},
                       {"v", DataType::kFloat64, true}})
      .value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class JournalTest : public ::testing::Test {
 protected:
  // Path carries the test name: ctest runs each case as its own
  // process, so a shared name would race under -j.
  void SetUp() override {
    path_ = TempPath(
        std::string(::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
        ".journal_test.log");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(JournalTest, EntriesRoundTrip) {
  {
    auto writer = JournalWriter::Open(path_).value();
    JournalEntry create;
    create.kind = JournalEntry::Kind::kCreateTable;
    create.table_name = "t";
    create.schema = EventSchema();
    create.table_options.rows_per_segment = 128;
    ASSERT_TRUE(writer->Append(create).ok());

    JournalEntry insert;
    insert.kind = JournalEntry::Kind::kInsert;
    insert.table_name = "t";
    insert.values = {Value::Int64(7), Value::Null()};
    ASSERT_TRUE(writer->Append(insert).ok());

    JournalEntry advance;
    advance.kind = JournalEntry::Kind::kAdvanceTime;
    advance.advance = 3 * kHour;
    ASSERT_TRUE(writer->Append(advance).ok());

    JournalEntry sql;
    sql.kind = JournalEntry::Kind::kSql;
    sql.sql = "CONSUME SELECT * FROM t";
    ASSERT_TRUE(writer->Append(sql).ok());
    ASSERT_TRUE(writer->Sync().ok());
    EXPECT_EQ(writer->entries_written(), 4u);
  }

  auto reader = JournalReader::Open(path_).value();
  auto e1 = reader->Next();
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->kind, JournalEntry::Kind::kCreateTable);
  EXPECT_EQ(e1->table_name, "t");
  EXPECT_TRUE(e1->schema.Equals(EventSchema()));
  EXPECT_EQ(e1->table_options.rows_per_segment, 128u);

  auto e2 = reader->Next();
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->kind, JournalEntry::Kind::kInsert);
  ASSERT_EQ(e2->values.size(), 2u);
  EXPECT_EQ(e2->values[0].AsInt64(), 7);
  EXPECT_TRUE(e2->values[1].is_null());

  auto e3 = reader->Next();
  ASSERT_TRUE(e3.has_value());
  EXPECT_EQ(e3->advance, 3 * kHour);

  auto e4 = reader->Next();
  ASSERT_TRUE(e4.has_value());
  EXPECT_EQ(e4->sql, "CONSUME SELECT * FROM t");

  EXPECT_FALSE(reader->Next().has_value());
  EXPECT_FALSE(reader->truncated());
}

TEST_F(JournalTest, TornTailDetected) {
  {
    auto writer = JournalWriter::Open(path_).value();
    JournalEntry insert;
    insert.kind = JournalEntry::Kind::kInsert;
    insert.table_name = "t";
    insert.values = {Value::Int64(1), Value::Float64(2.0)};
    ASSERT_TRUE(writer->Append(insert).ok());
    ASSERT_TRUE(writer->Append(insert).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Chop a few bytes off the tail: entry 1 must survive, entry 2 must
  // be rejected as torn.
  std::string data;
  {
    std::ifstream in(path_, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size() - 3));
  }
  auto reader = JournalReader::Open(path_).value();
  EXPECT_TRUE(reader->Next().has_value());
  EXPECT_FALSE(reader->Next().has_value());
  EXPECT_TRUE(reader->truncated());
}

TEST_F(JournalTest, CorruptPayloadDetectedByChecksum) {
  {
    auto writer = JournalWriter::Open(path_).value();
    JournalEntry sql;
    sql.kind = JournalEntry::Kind::kSql;
    sql.sql = "CONSUME SELECT * FROM somewhere";
    ASSERT_TRUE(writer->Append(sql).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Flip one payload byte.
  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(-2, std::ios::end);
  file.put('X');
  file.close();
  auto reader = JournalReader::Open(path_).value();
  EXPECT_FALSE(reader->Next().has_value());
  EXPECT_TRUE(reader->truncated());
}

TEST_F(JournalTest, JournaledDatabaseRecoversExactState) {
  // Run a full scenario through the journaled facade, with decay and a
  // consuming query; then replay into a fresh database with the same
  // fungus configuration and compare the final states.
  DatabaseOptions options;
  auto run_scenario = [&](JournaledDatabase& jdb) {
    jdb.CreateTable("t", EventSchema()).value();
    jdb.db()
        .AttachFungus("t", std::make_unique<RetentionFungus>(4 * kHour),
                      kHour)
        .value();
    for (int i = 0; i < 30; ++i) {
      jdb.Insert("t", {Value::Int64(i), Value::Float64(i * 0.5)}).value();
      jdb.AdvanceTime(20 * kMinute).value();
    }
    jdb.ExecuteSql("CONSUME SELECT * FROM t WHERE k % 3 = 0").value();
    // Observing reads are not journaled and must not perturb replay.
    jdb.ExecuteSql("SELECT count(*) AS n FROM t").value();
    ASSERT_TRUE(jdb.Sync().ok());
  };

  auto jdb = JournaledDatabase::Open(options, path_).value();
  run_scenario(*jdb);
  const Table* original = &jdb->db().GetTable("t").value().table();
  const std::vector<RowId> original_rows = original->LiveRows();
  const Timestamp original_now = jdb->db().Now();

  // Replay without the fungus attached: all journaled inputs are
  // applied, but no decay runs. The replayed table must therefore hold
  // a superset of the original's live rows, while the journaled
  // consuming query removes exactly the same tuples in both runs. (The
  // exact-state recipe — same fungi attached before replay — is the
  // next test.)
  Database recovered(options);
  const uint64_t applied = ReplayJournal(recovered, path_).value();
  EXPECT_GE(applied, 32u);  // 1 create + 30 inserts + advances + consume

  const Table* replayed = &recovered.GetTable("t").value().table();
  EXPECT_EQ(recovered.Now(), original_now);
  EXPECT_EQ(replayed->total_appended(), original->total_appended());
  // Decay ran in the original but not during replay (no fungus
  // attached): the replayed table must contain a superset of the
  // original's live rows, and the consuming query's effect is identical.
  for (RowId row : original_rows) {
    EXPECT_TRUE(replayed->IsLive(row)) << row;
  }
  // The consumed rows (k % 3 = 0) are dead in both.
  ResultSet consumed_check =
      recovered.ExecuteSql("SELECT count(*) AS n FROM t WHERE k % 3 = 0")
          .value();
  EXPECT_EQ(consumed_check.at(0, 0).AsInt64(), 0);
}

TEST_F(JournalTest, DeterministicReplayWithSameFungi) {
  // The stronger property: when the recovery recipe attaches the same
  // fungus before replay begins (table pre-created so attachment is
  // possible, journal written without the create entry), the replayed
  // state matches the original exactly.
  DatabaseOptions options;
  auto jdb = JournaledDatabase::Open(options, path_).value();
  jdb->db().CreateTable("t", EventSchema()).value();  // not journaled
  jdb->db()
      .AttachFungus("t", std::make_unique<RetentionFungus>(4 * kHour),
                    kHour)
      .value();
  for (int i = 0; i < 40; ++i) {
    jdb->Insert("t", {Value::Int64(i), Value::Float64(i * 1.0)}).value();
    jdb->AdvanceTime(15 * kMinute).value();
  }
  ASSERT_TRUE(jdb->Sync().ok());
  const Table* original = &jdb->db().GetTable("t").value().table();

  Database recovered(options);
  recovered.CreateTable("t", EventSchema()).value();
  recovered
      .AttachFungus("t", std::make_unique<RetentionFungus>(4 * kHour),
                    kHour)
      .value();
  ASSERT_TRUE(ReplayJournal(recovered, path_).ok());

  const Table* replayed = &recovered.GetTable("t").value().table();
  EXPECT_EQ(replayed->LiveRows(), original->LiveRows());
  EXPECT_EQ(replayed->live_rows(), original->live_rows());
  for (RowId row : original->LiveRows()) {
    EXPECT_DOUBLE_EQ(replayed->Freshness(row), original->Freshness(row));
  }
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void SpitFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(JournalTest, CreateTableShardCountIsIgnoredOnReplay) {
  // Journals written while tables carried a shard count hold it in the
  // CreateTable entry's last u64. The slot is validated, then ignored:
  // a table created with 8 shards replays to the same rows and
  // freshness bits as one created with 1.
  {
    auto writer = JournalWriter::Open(path_).value();
    JournalEntry create;
    create.kind = JournalEntry::Kind::kCreateTable;
    create.table_name = "t";
    create.schema = EventSchema();
    create.table_options.rows_per_segment = 4;
    ASSERT_TRUE(writer->Append(create).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  const std::string one_shard = SlurpFile(path_);
  // Frame: u32 payload length, u64 checksum of the payload, payload.
  constexpr size_t kHeader = sizeof(uint32_t) + sizeof(uint64_t);
  const size_t slot_at = one_shard.size() - sizeof(uint64_t);
  uint64_t slot = 0;
  std::memcpy(&slot, one_shard.data() + slot_at, sizeof(slot));
  ASSERT_EQ(slot, 1u);
  std::string eight_shards = one_shard;
  const uint64_t eight = 8;
  std::memcpy(eight_shards.data() + slot_at, &eight, sizeof(eight));
  const uint64_t checksum =
      HashBytes(eight_shards.data() + kHeader, eight_shards.size() - kHeader,
                /*seed=*/0);
  std::memcpy(eight_shards.data() + sizeof(uint32_t), &checksum,
              sizeof(checksum));

  // The inputs after the create: rows over many segments, with ticks
  // that decay and kill.
  const std::string ops_path = path_ + ".ops";
  {
    auto writer = JournalWriter::Open(ops_path).value();
    for (int i = 0; i < 48; ++i) {
      JournalEntry insert;
      insert.kind = JournalEntry::Kind::kInsert;
      insert.table_name = "t";
      insert.values = {Value::Int64(i), Value::Float64(i * 0.5)};
      ASSERT_TRUE(writer->Append(insert).ok());
      JournalEntry advance;
      advance.kind = JournalEntry::Kind::kAdvanceTime;
      advance.advance = 10 * kMinute;
      ASSERT_TRUE(writer->Append(advance).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }

  using Fingerprint = std::vector<std::pair<RowId, uint64_t>>;
  auto replay = [&](const std::string& create_bytes) {
    SpitFile(path_, create_bytes);
    Database db;
    EXPECT_EQ(ReplayJournal(db, path_).value(), 1u);
    db.AttachFungus("t", std::make_unique<RetentionFungus>(4 * kHour),
                    kHour)
        .value();
    EXPECT_EQ(ReplayJournal(db, ops_path).value(), 96u);
    const Table& table = db.GetTable("t").value().table();
    EXPECT_GT(table.rows_killed(), 0u);
    Fingerprint fp;
    table.ForEachLive([&](RowId row) {
      const double f = table.Freshness(row);
      uint64_t bits = 0;
      std::memcpy(&bits, &f, sizeof(bits));
      fp.emplace_back(row, bits);
    });
    return fp;
  };
  const Fingerprint want = replay(one_shard);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(replay(eight_shards), want);
  std::remove(ops_path.c_str());
}

TEST_F(JournalTest, ReplayFailsFastOnBadEntry) {
  {
    auto writer = JournalWriter::Open(path_).value();
    JournalEntry insert;
    insert.kind = JournalEntry::Kind::kInsert;
    insert.table_name = "no_such_table";
    insert.values = {Value::Int64(1), Value::Float64(1.0)};
    ASSERT_TRUE(writer->Append(insert).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  Database db;
  EXPECT_EQ(ReplayJournal(db, path_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(JournalTest, MissingJournalIsNotFound) {
  EXPECT_EQ(JournalReader::Open(TempPath("nope.log")).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace fungusdb
