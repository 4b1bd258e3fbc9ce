// The block checksum (DESIGN.md §15): the table-sliced CRC-32 must give
// the standard CRC-32 of any byte span, and a frozen segment's streamed
// checksum must equal the CRC of the bytes Serialize() writes, for every
// column type and freshness layout, and for the blocks of the checked-in
// v3 snapshots.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_io.h"
#include "common/random.h"
#include "persist/snapshot.h"
#include "storage/encode/encoding.h"
#include "storage/segment.h"

namespace fungusdb {
namespace {

using encode::Crc32;
using encode::Crc32Writer;

/// The textbook CRC-32: one bit at a time, no table.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(std::string_view()), 0u);
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32Writer().checksum(), 0u);
}

TEST(Crc32Test, SlicedMatchesBitwiseAtEveryLengthAndAlignment) {
  Rng rng(7);
  std::vector<uint8_t> bytes(300 + 16);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + align, len),
                BitwiseCrc32(bytes.data() + align, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32Test, WriterChecksumsWhatABufferWriterHolds) {
  Rng rng(11);
  BufferWriter bytes;
  Crc32Writer crc;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextUint64();
    switch (rng.NextBounded(7)) {
      case 0:
        bytes.WriteU8(static_cast<uint8_t>(v));
        crc.WriteU8(static_cast<uint8_t>(v));
        break;
      case 1:
        bytes.WriteU32(static_cast<uint32_t>(v));
        crc.WriteU32(static_cast<uint32_t>(v));
        break;
      case 2:
        bytes.WriteU64(v);
        crc.WriteU64(v);
        break;
      case 3:
        bytes.WriteI64(static_cast<int64_t>(v));
        crc.WriteI64(static_cast<int64_t>(v));
        break;
      case 4:
        bytes.WriteDouble(static_cast<double>(v) / 3.0);
        crc.WriteDouble(static_cast<double>(v) / 3.0);
        break;
      case 5:
        bytes.WriteBool(v & 1);
        crc.WriteBool(v & 1);
        break;
      default: {
        const std::string s(v % 40, static_cast<char>('a' + v % 26));
        bytes.WriteString(s);
        crc.WriteString(s);
        break;
      }
    }
    ASSERT_EQ(crc.checksum(), Crc32(bytes.buffer())) << "after write " << i;
  }
}

// ---------------------------------------------------------------------
// Streamed block checksums.

Schema AllTypesSchema() {
  return Schema::Make({{"i", DataType::kInt64, true},
                       {"f", DataType::kFloat64, true},
                       {"s", DataType::kString, true},
                       {"b", DataType::kBool, true},
                       {"t", DataType::kTimestamp, true}})
      .value();
}

/// A full segment of every column type, every third cell of a column
/// null (at a different phase per column).
std::unique_ptr<Segment> FullSegment(size_t rows) {
  auto seg = std::make_unique<Segment>(AllTypesSchema(), 0, rows, false);
  Rng rng(3);
  for (size_t r = 0; r < rows; ++r) {
    auto cell = [&](size_t col, Value v) {
      return (r + col) % 3 == 0 ? Value::Null() : v;
    };
    const int64_t k = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
    seg->Append({cell(0, Value::Int64(k)),
                 cell(1, Value::Float64(static_cast<double>(k) / 7.0)),
                 cell(2, Value::String("s" + std::to_string(k % 9))),
                 cell(3, Value::Bool(k % 2 == 0)),
                 cell(4, Value::TimestampVal(k * 1000))},
                static_cast<Timestamp>(r / 4));
  }
  return seg;
}

void ExpectStreamedChecksumMatchesBytes(const Segment& seg) {
  ASSERT_TRUE(seg.is_frozen());
  const encode::FrozenSegment& fz = seg.frozen();
  BufferWriter bytes;
  fz.Serialize(bytes);
  EXPECT_EQ(fz.ComputeChecksum(), Crc32(bytes.buffer()));
  EXPECT_EQ(fz.checksum, Crc32(bytes.buffer()));
}

TEST(Crc32Test, StreamedChecksumOfUniformFreshnessWithNulls) {
  std::unique_ptr<Segment> seg = FullSegment(64);
  seg->Freeze();
  ASSERT_TRUE(seg->frozen().uniform_freshness);
  ExpectStreamedChecksumMatchesBytes(*seg);
}

TEST(Crc32Test, StreamedChecksumOfRawFreshnessAndDeadRows) {
  std::unique_ptr<Segment> seg = FullSegment(64);
  for (size_t off = 0; off < 64; off += 5) seg->SetFreshness(off, 0.5);
  for (size_t off = 1; off < 64; off += 9) seg->Kill(off);
  seg->Freeze();
  ASSERT_FALSE(seg->frozen().uniform_freshness);
  ExpectStreamedChecksumMatchesBytes(*seg);
}

TEST(Crc32Test, StreamedChecksumAfterMaterializingPendingDecay) {
  for (const bool raw : {false, true}) {
    SCOPED_TRACE(raw ? "raw freshness" : "uniform freshness");
    std::unique_ptr<Segment> seg = FullSegment(64);
    if (raw) seg->SetFreshness(3, 0.75);
    seg->Freeze();
    const uint32_t frozen_crc = seg->frozen().checksum;
    ASSERT_TRUE(seg->CanFoldUniformDecay(0.125));
    seg->FoldUniformDecay(0.125, 1);
    seg->FoldUniformDecay(0.0625, 2);
    EXPECT_EQ(seg->MaterializePendingDecay(2), 64u);
    ASSERT_TRUE(seg->is_frozen());
    EXPECT_NE(seg->frozen().checksum, frozen_crc);
    ExpectStreamedChecksumMatchesBytes(*seg);
  }
}

// The checked-in v3 snapshots: every frozen block's stored CRC is the
// CRC of its bytes and the streamed checksum of what it decodes to, the
// files load, and a flipped payload byte is refused.
TEST(Crc32Test, CheckedInV3SnapshotBlocksVerify) {
  const std::string dir = FUNGUSDB_TESTDATA_DIR;
  for (const char* name :
       {"v3_frozen_strings.snap", "v3_frozen_strings.resaved.snap"}) {
    SCOPED_TRACE(name);
    const std::string path = dir + "/" + name;
    const std::string bytes = Slurp(path);
    ASSERT_FALSE(bytes.empty());
    const SnapshotBlockIndex blocks = IndexSnapshotBlocks(bytes).value();
    for (const auto& [key, entry] : blocks) {
      EXPECT_EQ(Crc32(entry.payload), entry.crc);
      BufferReader in(entry.payload);
      const encode::FrozenSegment fz =
          encode::FrozenSegment::Deserialize(in).value();
      EXPECT_EQ(fz.checksum, entry.crc);
    }
    ASSERT_TRUE(LoadDatabaseSnapshot(path).ok());
    if (blocks.empty()) continue;
    const std::string& payload = blocks.begin()->second.payload;
    std::string corrupt = bytes;
    const size_t at = corrupt.find(payload);
    ASSERT_NE(at, std::string::npos);
    corrupt[at + payload.size() / 2] ^= 0x10;
    const std::string corrupt_path =
        ::testing::TempDir() + "/crc32_test_corrupt.snap";
    std::ofstream(corrupt_path, std::ios::binary) << corrupt;
    const auto loaded = LoadDatabaseSnapshot(corrupt_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checksum mismatch"),
              std::string::npos)
        << loaded.status().ToString();
    std::remove(corrupt_path.c_str());
  }
}

}  // namespace
}  // namespace fungusdb
