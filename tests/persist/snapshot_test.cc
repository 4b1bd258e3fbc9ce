#include "persist/snapshot.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "fungus/retention_fungus.h"
#include "storage/encode/encoding.h"
#include "storage/encode/frozen.h"
#include "storage/value_serde.h"
#include "summary/count_min_sketch.h"
#include "summary/grouped_aggregate.h"
#include "summary/hyperloglog.h"
#include "summary/serialize.h"

namespace fungusdb {
namespace {

Schema MixedSchema() {
  return Schema::Make({{"id", DataType::kInt64, false},
                       {"score", DataType::kFloat64, true},
                       {"name", DataType::kString, false}})
      .value();
}

TEST(ValueSerdeTest, AllTypesRoundTrip) {
  BufferWriter out;
  const std::vector<Value> values = {
      Value::Null(),           Value::Int64(-42),
      Value::Float64(3.25),    Value::String("hello"),
      Value::Bool(true),       Value::TimestampVal(123456789),
      Value::String(""),       Value::Float64(-0.0),
  };
  for (const Value& v : values) WriteValue(out, v);
  BufferReader in(out.buffer());
  for (const Value& expected : values) {
    Result<Value> got = ReadValue(in);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->Equals(expected)) << expected.ToString();
  }
  EXPECT_TRUE(in.exhausted());
}

TEST(ValueSerdeTest, SchemaRoundTrip) {
  BufferWriter out;
  WriteSchema(out, MixedSchema());
  BufferReader in(out.buffer());
  Result<Schema> schema = ReadSchema(in);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Equals(MixedSchema()));
}

TEST(ValueSerdeTest, TruncationFailsCleanly) {
  BufferWriter out;
  WriteValue(out, Value::String("a long enough payload"));
  const std::string data = out.buffer().substr(0, out.size() - 5);
  BufferReader in(data);
  EXPECT_FALSE(ReadValue(in).ok());
}

TEST(ValueSerdeTest, FieldCountBeyondTheInputFails) {
  // A field count no input this short can hold must not size a reserve.
  BufferWriter out;
  out.WriteU64(uint64_t{1} << 60);
  out.WriteU64(0);
  BufferReader in(out.buffer());
  EXPECT_EQ(ReadSchema(in).status().code(), StatusCode::kParseError);
}

TEST(SummarySerializeTest, EveryKindRoundTrips) {
  std::vector<std::unique_ptr<Summary>> originals;
  {
    auto cm = std::make_unique<CountMinSketch>(64, 4);
    for (int i = 0; i < 100; ++i) cm->Observe(Value::Int64(i % 7));
    originals.push_back(std::move(cm));
  }
  {
    auto hll = std::make_unique<HyperLogLog>(10);
    for (int i = 0; i < 500; ++i) hll->Observe(Value::Int64(i));
    originals.push_back(std::move(hll));
  }
  {
    auto agg = std::make_unique<GroupedAggregate>();
    agg->Observe(Value::String("a"), Value::Float64(1.5));
    agg->Observe(Value::String("b"), Value::Float64(-3.0));
    originals.push_back(std::move(agg));
  }
  for (const auto& original : originals) {
    BufferWriter out;
    SerializeSummary(*original, out);
    BufferReader in(out.buffer());
    Result<std::unique_ptr<Summary>> restored = DeserializeSummary(in);
    ASSERT_TRUE(restored.ok()) << original->kind();
    EXPECT_EQ((*restored)->kind(), original->kind());
    EXPECT_EQ((*restored)->observations(), original->observations());
    EXPECT_TRUE(in.exhausted());
  }
}

TEST(SummarySerializeTest, CountMinEstimatesSurvive) {
  CountMinSketch cm(128, 4);
  for (int i = 0; i < 50; ++i) cm.Observe(Value::String("key"));
  BufferWriter out;
  SerializeSummary(cm, out);
  BufferReader in(out.buffer());
  auto restored = DeserializeSummary(in).value();
  auto* cm2 = static_cast<CountMinSketch*>(restored.get());
  EXPECT_EQ(cm2->EstimateCount(Value::String("key")), 50u);
}

TEST(SummarySerializeTest, UnknownKindFails) {
  BufferWriter out;
  out.WriteString("flux_capacitor");
  BufferReader in(out.buffer());
  EXPECT_EQ(DeserializeSummary(in).status().code(),
            StatusCode::kParseError);
}

TEST(TableSnapshotTest, LiveRowsRoundTripWithFreshness) {
  TableOptions opts;
  opts.rows_per_segment = 4;
  Table t("events", MixedSchema(), opts);
  for (int i = 0; i < 10; ++i) {
    t.Append({Value::Int64(i), i % 3 == 0 ? Value::Null()
                                          : Value::Float64(i * 0.5),
              Value::String("row" + std::to_string(i))},
             i * 100)
        .value();
  }
  ASSERT_TRUE(t.SetFreshness(3, 0.4).ok());
  ASSERT_TRUE(t.Kill(5).ok());

  BufferWriter out;
  SerializeTable(t, out);
  BufferReader in(out.buffer());
  Result<Table> restored = DeserializeTable(in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->name(), "events");
  EXPECT_EQ(restored->live_rows(), 9u);  // the killed row is gone
  EXPECT_TRUE(restored->schema().Equals(t.schema()));
  // Row ids compact: old row 6 (after the killed 5) becomes row 5.
  EXPECT_EQ(restored->GetValue(5, 2).value().AsString(), "row6");
  EXPECT_EQ(restored->InsertTime(5).value(), 600);
  // Freshness preserved.
  EXPECT_DOUBLE_EQ(restored->Freshness(3), 0.4);
  // Nulls preserved.
  EXPECT_TRUE(restored->GetValue(0, 1).value().is_null());
}

TEST(TableSnapshotTest, FrozenBlockOfAnotherLengthRejected) {
  // Only full segments freeze, so a frozen block spans exactly one
  // segment. Splice the 8-row block of a table with 8-row segments
  // into the snapshot of one with 4-row segments: the load must refuse
  // it rather than replay rows no segment held.
  auto frozen_table = [](size_t rows_per_segment) {
    TableOptions opts;
    opts.rows_per_segment = rows_per_segment;
    Table t("events", MixedSchema(), opts);
    for (int i = 0; i < 8; ++i) {
      t.Append({Value::Int64(i), Value::Float64(i * 0.5),
                Value::String("z")},
               i)
          .value();
    }
    EXPECT_EQ(t.FreezeColdSegments(0), 8 / rows_per_segment);
    return t;
  };
  auto block_of = [](const Table& t) {
    BufferWriter block;
    t.segments().begin()->second->frozen().Serialize(block);
    return block.buffer();
  };
  const Table four = frozen_table(4);
  BufferWriter out;
  SerializeTable(four, out);
  std::string bytes = out.buffer();
  const std::string old_block = block_of(four);
  const size_t at = bytes.find(old_block);
  ASSERT_NE(at, std::string::npos);

  const std::string new_block = block_of(frozen_table(8));
  BufferWriter chunk;  // length-prefixed payload, then its CRC
  chunk.WriteString(new_block);
  chunk.WriteU32(encode::Crc32(new_block));
  bytes.replace(at - sizeof(uint64_t),
                sizeof(uint64_t) + old_block.size() + sizeof(uint32_t),
                chunk.buffer());
  BufferReader in(bytes);
  const Result<Table> restored = DeserializeTable(in);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("row count"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(DatabaseSnapshotTest, FullRoundTripInMemory) {
  Database db;
  db.CreateTable("r", MixedSchema()).value();
  for (int i = 0; i < 20; ++i) {
    db.Insert("r", {Value::Int64(i), Value::Float64(i * 1.0),
                    Value::String("x")})
        .value();
    db.AdvanceTime(kMinute).value();
  }
  auto sketch = std::make_unique<CountMinSketch>(64, 4);
  sketch->Observe(Value::Int64(1));
  ASSERT_TRUE(db.cellar()
                  .Put("counts", std::move(sketch), kDay, db.Now())
                  .ok());

  BufferWriter out;
  SerializeDatabase(db, out);
  BufferReader in(out.buffer());
  Result<std::unique_ptr<Database>> restored = DeserializeDatabase(in);
  ASSERT_TRUE(restored.ok());
  Database& db2 = **restored;
  EXPECT_EQ(db2.Now(), db.Now());
  EXPECT_EQ(db2.GetTable("r").value().live_rows(), 20u);
  ASSERT_NE(db2.cellar().Find("counts"), nullptr);
  EXPECT_EQ(db2.cellar().Find("counts")->observations(), 1u);
  // Queries work on the restored database.
  ResultSet rs = db2.ExecuteSql("SELECT count(*) AS n FROM r").value();
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 20);
}

TEST(DatabaseSnapshotTest, FileRoundTripAndDecayContinues) {
  const std::string path = ::testing::TempDir() + "/fungus_snapshot.bin";
  {
    Database db;
    db.CreateTable("r", MixedSchema()).value();
    for (int i = 0; i < 10; ++i) {
      db.Insert("r", {Value::Int64(i), Value::Float64(1.0),
                      Value::String("y")})
          .value();
    }
    db.AdvanceTime(kHour).value();
    ASSERT_TRUE(SaveDatabaseSnapshot(db, path).ok());
  }
  Result<std::unique_ptr<Database>> restored = LoadDatabaseSnapshot(path);
  ASSERT_TRUE(restored.ok());
  Database& db = **restored;
  EXPECT_EQ(db.Now(), kHour);
  // Fungi are not persisted; re-attach and verify decay picks up from
  // the restored virtual time and the preserved insertion timestamps.
  ASSERT_TRUE(db.AttachFungus("r",
                              std::make_unique<RetentionFungus>(2 * kHour),
                              kHour)
                  .ok());
  ASSERT_TRUE(db.AdvanceTime(3 * kHour).ok());
  EXPECT_EQ(db.GetTable("r").value().live_rows(), 0u);
  std::remove(path.c_str());
}

TEST(DatabaseSnapshotTest, CorruptFileRejected) {
  const std::string path = ::testing::TempDir() + "/fungus_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a snapshot", f);
    std::fclose(f);
  }
  // Garbage either fails the magic check (ParseError) or trips the
  // bounds checks first (OutOfRange); both are clean rejections.
  EXPECT_FALSE(LoadDatabaseSnapshot(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(LoadDatabaseSnapshot(path).status().code(),
            StatusCode::kNotFound);
}

TEST(DatabaseSnapshotTest, TruncatedSnapshotRejected) {
  Database db;
  db.CreateTable("r", MixedSchema()).value();
  db.Insert("r", {Value::Int64(1), Value::Float64(1.0),
                  Value::String("z")})
      .value();
  BufferWriter out;
  SerializeDatabase(db, out);
  const std::string truncated = out.buffer().substr(0, out.size() / 2);
  BufferReader in(truncated);
  EXPECT_FALSE(DeserializeDatabase(in).ok());
}

}  // namespace
}  // namespace fungusdb
