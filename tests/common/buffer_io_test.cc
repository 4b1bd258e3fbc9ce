#include "common/buffer_io.h"

#include <gtest/gtest.h>

namespace fungusdb {
namespace {

TEST(BufferIoTest, PrimitivesRoundTrip) {
  BufferWriter out;
  out.WriteU8(0xAB);
  out.WriteU32(0xDEADBEEF);
  out.WriteU64(0x0123456789ABCDEFull);
  out.WriteI64(-42);
  out.WriteDouble(3.25);
  out.WriteBool(true);
  out.WriteBool(false);
  out.WriteString("fungus");

  BufferReader in(out.buffer());
  EXPECT_EQ(in.ReadU8().value(), 0xAB);
  EXPECT_EQ(in.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(in.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(in.ReadDouble().value(), 3.25);
  EXPECT_TRUE(in.ReadBool().value());
  EXPECT_FALSE(in.ReadBool().value());
  EXPECT_EQ(in.ReadString().value(), "fungus");
  EXPECT_TRUE(in.exhausted());
}

TEST(BufferIoTest, EmptyStringAndBinaryPayloads) {
  BufferWriter out;
  out.WriteString("");
  out.WriteString(std::string("\0\x01\xFF", 3));
  BufferReader in(out.buffer());
  EXPECT_EQ(in.ReadString().value(), "");
  const std::string binary = in.ReadString().value();
  ASSERT_EQ(binary.size(), 3u);
  EXPECT_EQ(binary[0], '\0');
  EXPECT_EQ(static_cast<unsigned char>(binary[2]), 0xFF);
}

TEST(BufferIoTest, ReadsPastEndFail) {
  BufferWriter out;
  out.WriteU32(7);
  BufferReader in(out.buffer());
  EXPECT_TRUE(in.ReadU32().ok());
  EXPECT_EQ(in.ReadU8().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(in.ReadU64().status().code(), StatusCode::kOutOfRange);
}

TEST(BufferIoTest, TruncatedStringLengthFails) {
  BufferWriter out;
  out.WriteString("hello world");
  const std::string data = out.buffer().substr(0, out.size() - 4);
  BufferReader in(data);
  EXPECT_EQ(in.ReadString().status().code(), StatusCode::kOutOfRange);
}

TEST(BufferIoTest, ShortReadsSayWhatWasMissing) {
  BufferWriter out;
  out.WriteU32(7);
  out.WriteU8(1);
  BufferReader in(out.buffer());
  uint64_t wide = 0;
  EXPECT_FALSE(in.Read(wide));
  EXPECT_EQ(in.remaining(), 5u);  // a failed read consumes nothing
  EXPECT_EQ(in.error().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(in.error().message(), "truncated: need 8 bytes, have 5");
  EXPECT_EQ(in.ReadU64().status().message(),
            "truncated: need 8 bytes, have 5");
  uint32_t narrow = 0;
  EXPECT_TRUE(in.Read(narrow));
  EXPECT_EQ(narrow, 7u);
  bool flag = false;
  EXPECT_TRUE(in.Read(flag));
  EXPECT_TRUE(flag);
  EXPECT_TRUE(in.exhausted());
}

TEST(BufferIoTest, HugeDeclaredLengthFailsCleanly) {
  BufferWriter out;
  out.WriteU64(UINT64_MAX);  // a string header promising 2^64 bytes
  BufferReader in(out.buffer());
  EXPECT_FALSE(in.ReadString().ok());
}

TEST(BufferIoTest, RemainingTracksPosition) {
  BufferWriter out;
  out.WriteU64(1);
  out.WriteU64(2);
  BufferReader in(out.buffer());
  EXPECT_EQ(in.remaining(), 16u);
  in.ReadU64().value();
  EXPECT_EQ(in.remaining(), 8u);
  EXPECT_FALSE(in.exhausted());
  in.ReadU64().value();
  EXPECT_TRUE(in.exhausted());
}

TEST(BufferIoTest, ReleaseMovesBuffer) {
  BufferWriter out;
  out.WriteU8(1);
  const std::string data = out.Release();
  EXPECT_EQ(data.size(), 1u);
}

}  // namespace
}  // namespace fungusdb
