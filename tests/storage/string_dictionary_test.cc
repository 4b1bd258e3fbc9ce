// Dictionary-coded strings on both tiers (DESIGN.md §15): a plain
// segment's string column holds codes into a first-appearance
// dictionary, the same dictionary and codes its frozen image packs. So
// every query must answer alike on plain, frozen and thawed segments,
// freezing must produce exactly what DictStrings::Pack makes of the
// decoded strings, and snapshots written before the plain tier was
// dictionary-coded must still load, re-save to the same bytes, and
// freeze back to the same blocks but for their plain-size fields. The
// *TieredStorage* suite names put these under CI's TSan job too.

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_io.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/internal_access.h"
#include "persist/snapshot.h"
#include "query/engine.h"
#include "query/parser.h"
#include "storage/encode/encoding.h"
#include "storage/encode/frozen.h"
#include "storage/table.h"
#include "verify/invariant_checker.h"

namespace fungusdb {
namespace {

constexpr size_t kRowsPerSegment = 4096;

/// `s`: segment 0 holds 4096 distinct values; later rows draw from a
/// few short payloads, "" and NULL. `u`: three one-letter payloads and
/// NULL. `c`: "only" in every row but a scattering of segment 1, so
/// some segments have a one-entry dictionary. `k`: a small int.
Table MakeStringTable() {
  TableOptions options;
  options.rows_per_segment = kRowsPerSegment;
  Table table("t",
              Schema::Make({{"s", DataType::kString, true},
                            {"u", DataType::kString, true},
                            {"c", DataType::kString, false},
                            {"k", DataType::kInt64, false}})
                  .value(),
              options);
  static const char* const kNames[] = {"north", "south", "it's", "east"};
  Rng rng(77);
  const size_t rows = 3 * kRowsPerSegment + 100;
  for (size_t i = 0; i < rows; ++i) {
    Value s;
    if (i < kRowsPerSegment) {
      s = Value::String("id-" + std::to_string(i));
    } else {
      const uint64_t roll = rng.NextBounded(8);
      s = roll == 0   ? Value::Null()
          : roll == 1 ? Value::String("")
                      : Value::String(kNames[roll % 4]);
    }
    const Value u =
        rng.NextBernoulli(0.1)
            ? Value::Null()
            : Value::String(std::string(1, 'a' + rng.NextBounded(3)));
    const bool other = i / kRowsPerSegment == 1 && i % 97 == 0;
    const Value c = Value::String(other ? "other" : "only");
    FUNGUSDB_CHECK_OK(table
                          .Append({s, u, c,
                                   Value::Int64(static_cast<int64_t>(i % 13))},
                                  static_cast<Timestamp>(i))
                          .status());
  }
  return table;
}

/// Every cell with its type; float64 cells by their bits.
std::string Render(const ResultSet& rs) {
  std::string out;
  for (const std::string& name : rs.column_names) out += name + ",";
  out += "\n";
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      if (v.is_null()) {
        out += "NULL";
      } else if (v.type() == DataType::kFloat64) {
        out += "f" + std::to_string(std::bit_cast<uint64_t>(v.AsFloat64()));
      } else {
        out += std::string(DataTypeName(v.type())) + ":" + v.ToString();
      }
      out += "|";
    }
    out += "\n";
  }
  return out;
}

const char* const kStringQueries[] = {
    "SELECT s, count(*) AS n, sum(k) AS t FROM t GROUP BY s",
    "SELECT s, u, count(*) AS n, avg(k) AS a FROM t GROUP BY s, u",
    "SELECT u, min(s) AS lo, max(s) AS hi, count(s) AS n FROM t GROUP BY u",
    "SELECT c, count(*) AS n FROM t GROUP BY c",
    "SELECT min(s) AS lo, max(s) AS hi, min(u) AS ulo FROM t",
    "SELECT count(*) AS n FROM t WHERE s = 'north'",
    "SELECT count(*) AS n FROM t WHERE s = 'id-4095'",
    "SELECT count(*) AS n FROM t WHERE s = 'absent'",
    "SELECT count(*) AS n FROM t WHERE s != 'north'",
    "SELECT count(*) AS n FROM t WHERE s != 'absent'",
    "SELECT count(*) AS n FROM t WHERE s = ''",
    "SELECT count(*) AS n FROM t WHERE c = 'only'",
    "SELECT count(*) AS n FROM t WHERE c != 'only'",
    "SELECT count(*) AS n FROM t WHERE NOT (u = 'a') AND k > 3",
    "SELECT u, count(*) AS n FROM t WHERE s = 'south' OR u = 'b' GROUP BY u",
    "SELECT s, u, c, k FROM t WHERE s = 'it''s' AND u != 'c'",
    "SELECT s, u FROM t WHERE k = 7",
};

std::vector<std::string> Answers(Table& table, QueryEngine& engine) {
  std::vector<std::string> out;
  for (const char* sql : kStringQueries) {
    const Result<ResultSet> rs = engine.Execute(ParseQuery(sql).value(),
                                                table, 0);
    out.push_back(rs.ok() ? Render(*rs)
                          : "FAILED " + std::string(sql) + ": " +
                                rs.status().ToString());
  }
  return out;
}

TEST(TieredStorageStringTest, PlainFrozenAndThawedAnswerAlike) {
  Table plain = MakeStringTable();
  Table frozen = MakeStringTable();
  ASSERT_EQ(frozen.FreezeColdSegments(0), 3u);
  Table thawed = MakeStringTable();
  ASSERT_EQ(thawed.FreezeColdSegments(0), 3u);
  thawed.RecomputeZoneMaps();  // a mutating touch: thaws every segment
  ASSERT_EQ(thawed.GetStorageStats().frozen_segments, 0u);

  QueryEngine serial;
  ThreadPool pool(2);
  QueryEngineOptions pooled_options;
  pooled_options.pool = &pool;
  pooled_options.parallel_scan_min_segments = 2;
  QueryEngine pooled(pooled_options);
  const std::vector<std::string> want = Answers(plain, serial);
  for (const std::string& answer : want) {
    EXPECT_NE(answer.rfind("FAILED", 0), 0u) << answer;
  }
  EXPECT_EQ(Answers(frozen, serial), want);
  EXPECT_EQ(Answers(thawed, serial), want);
  EXPECT_EQ(Answers(plain, pooled), want);
  EXPECT_EQ(Answers(frozen, pooled), want);
  for (const Table* t : {&plain, &frozen, &thawed}) {
    const verify::Report report = verify::InvariantChecker().CheckTable(*t);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(TieredStorageStringTest, FreezeMatchesDictStringsPack) {
  Table table = MakeStringTable();
  // The decoded strings of every full segment, a null cell as "" (the
  // rule DictStrings::Pack codes nulls by).
  std::map<uint64_t, std::vector<std::vector<std::string>>> decoded;
  for (const auto& [seg_no, seg] : table.segments()) {
    if (!seg->full()) continue;
    auto& columns = decoded[seg_no];
    columns.resize(seg->num_columns());
    for (size_t c = 0; c < seg->num_columns(); ++c) {
      if (seg->column_type(c) != DataType::kString) continue;
      for (size_t off = 0; off < seg->num_rows(); ++off) {
        columns[c].push_back(seg->IsColumnNull(off, c)
                                 ? std::string()
                                 : seg->GetValue(off, c).AsString());
      }
    }
  }
  ASSERT_EQ(decoded.size(), 3u);
  ASSERT_EQ(table.FreezeColdSegments(0), 3u);
  for (const auto& [seg_no, columns] : decoded) {
    SCOPED_TRACE("segment " + std::to_string(seg_no));
    const encode::FrozenSegment& fz =
        table.segments().at(seg_no)->frozen();
    encode::FrozenSegment reference = fz;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (fz.columns[c].type != DataType::kString) continue;
      reference.columns[c].strings = encode::DictStrings::Pack(columns[c]);
      EXPECT_EQ(fz.columns[c].strings.dict, reference.columns[c].strings.dict);
      EXPECT_EQ(fz.columns[c].strings.codes.values,
                reference.columns[c].strings.codes.values);
      EXPECT_EQ(fz.columns[c].strings.codes.ends,
                reference.columns[c].strings.codes.ends);
    }
    EXPECT_EQ(reference.ComputeChecksum(), fz.checksum);
    EXPECT_EQ(fz.ComputeChecksum(), fz.checksum);
  }
}

TEST(TieredStorageStringTest, PlainStringsCostACodePerRow) {
  // 4096 rows of one 40-byte payload: the plain column stores it once.
  TableOptions options;
  options.rows_per_segment = kRowsPerSegment;
  Table table("t", Schema::Make({{"s", DataType::kString, false}}).value(),
              options);
  const std::string payload(40, 'p');
  for (size_t i = 0; i < kRowsPerSegment; ++i) {
    FUNGUSDB_CHECK_OK(table
                          .Append({Value::String(payload)},
                                  static_cast<Timestamp>(i))
                          .status());
  }
  const Segment& seg = *table.segments().begin()->second;
  ASSERT_TRUE(seg.full());
  EXPECT_EQ(seg.StringDictionary(0).size(), 1u);
  // Codes (4 B) and validity bits per row plus the system vectors
  // (ts 8 B, freshness 8 B, alive 1 B): well under 32 B a row.
  EXPECT_LT(seg.MemoryUsage(), kRowsPerSegment * 32);
}

// Snapshot files written by the format-v3 code from before the plain
// tier was dictionary-coded: the database tests/storage/testdata's
// v3_frozen_strings.snap holds (six 8-row segments over two nullable
// string columns, five of them frozen when it was saved), and what
// that code wrote when it loaded the file and saved it again.
TEST(TieredStorageStringTest, EarlierV3SnapshotLoadsAndResavesIdentically) {
  const std::string dir = FUNGUSDB_TESTDATA_DIR;
  std::unique_ptr<Database> loaded =
      LoadDatabaseSnapshot(dir + "/v3_frozen_strings.snap").value();
  EXPECT_TRUE(loaded->Fsck().ok());
  const std::string resaved =
      ::testing::TempDir() + "/v3_frozen_strings.resaved.fgdb";
  ASSERT_TRUE(SaveDatabaseSnapshot(*loaded, resaved).ok());
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string want = slurp(dir + "/v3_frozen_strings.resaved.snap");
  ASSERT_FALSE(want.empty());
  // That code wrote the table's shard count, 2, into the u64 after
  // rows_per_segment and track_access; the retired slot now always
  // holds 1. Every other byte is unchanged.
  constexpr size_t kNumShardsSlot = 111;
  ASSERT_EQ(want.substr(kNumShardsSlot, 8),
            std::string("\x02\0\0\0\0\0\0\0", 8));
  want.replace(kNumShardsSlot, 8, std::string("\x01\0\0\0\0\0\0\0", 8));
  EXPECT_EQ(slurp(resaved), want);
  std::remove(resaved.c_str());
}

// Loading replays frozen blocks into plain segments, so the re-save
// above holds no block. Freezing the loaded rows again must write the
// blocks the v3 code wrote into that file, byte for byte, except the
// plain_bytes fields (segment and column) and so the CRC: plain_bytes
// records the segment's plain footprint before it froze, which is
// smaller now that a plain string cell is a 4-byte code.
TEST(TieredStorageStringTest, RefreezingLoadedRowsRewritesTheEarlierBlocks) {
  const std::string dir = FUNGUSDB_TESTDATA_DIR;
  std::ifstream file(dir + "/v3_frozen_strings.snap", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  const SnapshotBlockIndex earlier = IndexSnapshotBlocks(bytes).value();
  ASSERT_EQ(earlier.size(), 5u);
  std::unique_ptr<Database> loaded =
      LoadDatabaseSnapshot(dir + "/v3_frozen_strings.snap").value();
  RwLock::WriteLock write_lock(loaded->lock());
  size_t compared = 0;
  for (const auto& [key, entry] : earlier) {
    SCOPED_TRACE(key.first + " first_row " + std::to_string(key.second));
    Table* table =
        internal::DatabaseInternal::MutableTable(*loaded, key.first).value();
    table->FreezeColdSegments(0);
    const Segment* seg = nullptr;
    for (const auto& [seg_no, s] : table->segments()) {
      if (s->first_row() == key.second) seg = s.get();
    }
    ASSERT_NE(seg, nullptr);
    ASSERT_TRUE(seg->is_frozen());
    BufferReader in(entry.payload);
    const encode::FrozenSegment want =
        encode::FrozenSegment::Deserialize(in).value();
    encode::FrozenSegment got = seg->frozen();
    EXPECT_EQ(got.checksum, got.ComputeChecksum());
    ASSERT_EQ(got.columns.size(), want.columns.size());
    got.plain_bytes = want.plain_bytes;
    for (size_t c = 0; c < got.columns.size(); ++c) {
      got.columns[c].plain_bytes = want.columns[c].plain_bytes;
    }
    BufferWriter out;
    got.Serialize(out);
    EXPECT_EQ(out.buffer(), entry.payload);
    EXPECT_EQ(got.ComputeChecksum(), entry.crc);
    ++compared;
  }
  EXPECT_EQ(compared, 5u);
}

}  // namespace
}  // namespace fungusdb
