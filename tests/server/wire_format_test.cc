#include "server/wire_format.h"

#include <gtest/gtest.h>

#include "core/meta_commands.h"
#include "query/result_set_serde.h"

namespace fungusdb::server {
namespace {

ResultSet SampleResultSet() {
  ResultSet rs;
  rs.column_names = {"a", "b", "c"};
  std::vector<Value> row1;
  row1.push_back(Value::Int64(7));
  row1.push_back(Value::String("mycelium"));
  row1.push_back(Value::Float64(0.25));
  rs.rows.push_back(std::move(row1));
  std::vector<Value> row2;
  row2.push_back(Value::Null());
  row2.push_back(Value::Bool(true));
  row2.push_back(Value::TimestampVal(42 * kSecond));
  rs.rows.push_back(std::move(row2));
  rs.stats.rows_scanned = 10;
  rs.stats.rows_matched = 2;
  rs.stats.rows_consumed = 1;
  return rs;
}

TEST(WireFormatTest, FrameHeaderRoundTrip) {
  const std::string frame = EncodeFrame(FrameType::kStatementRequest, "abc");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  const FrameHeader header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderBytes))
          .value();
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, FrameType::kStatementRequest);
  EXPECT_EQ(header.payload_size, 3u);
}

TEST(WireFormatTest, FrameHeaderLayoutIsDocumented) {
  // The on-wire layout is a public contract: magic, version, type,
  // length — all little-endian at fixed offsets.
  const std::string frame = EncodeFrame(FrameType::kStatementResponse, "x");
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 0x46);  // 'F'
  EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0x47);  // 'G'
  EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0x57);  // 'W'
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 0x50);  // 'P'
  EXPECT_EQ(static_cast<unsigned char>(frame[4]), kWireVersion);
  EXPECT_EQ(static_cast<unsigned char>(frame[5]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[6]), 2);  // response type
  EXPECT_EQ(static_cast<unsigned char>(frame[7]), 0);
  EXPECT_EQ(static_cast<unsigned char>(frame[8]), 1);  // payload length
}

TEST(WireFormatTest, HeaderRejectsBadMagic) {
  std::string frame = EncodeFrame(FrameType::kStatementRequest, "");
  frame[0] = 'X';
  const Status status =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderBytes))
          .status();
  EXPECT_EQ(status.error_code(), ErrorCode::kWireFormat);
}

TEST(WireFormatTest, HeaderRejectsBadVersion) {
  std::string frame = EncodeFrame(FrameType::kStatementRequest, "");
  frame[4] = 99;
  EXPECT_FALSE(
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderBytes))
          .ok());
}

TEST(WireFormatTest, HeaderRejectsUnknownFrameType) {
  std::string frame = EncodeFrame(FrameType::kStatementRequest, "");
  frame[6] = 9;
  EXPECT_FALSE(
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderBytes))
          .ok());
}

TEST(WireFormatTest, HeaderRejectsOversizedPayload) {
  std::string frame = EncodeFrame(FrameType::kStatementRequest, "");
  frame[11] = 0x7f;  // payload_size high byte -> ~2 GiB
  EXPECT_FALSE(
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderBytes))
          .ok());
}

TEST(WireFormatTest, HeaderRejectsWrongSize) {
  EXPECT_FALSE(DecodeFrameHeader("short").ok());
  EXPECT_FALSE(DecodeFrameHeader(std::string(20, 'x')).ok());
}

TEST(WireFormatTest, StatementRequestRoundTrip) {
  StatementRequest request;
  request.request_id = 0xdeadbeef12345678ull;
  request.deadline_micros = 250000;
  request.statements = {"SELECT * FROM t", "\\health", ""};
  const StatementRequest decoded =
      DecodeStatementRequest(EncodeStatementRequest(request)).value();
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.deadline_micros, request.deadline_micros);
  EXPECT_EQ(decoded.statements, request.statements);
}

TEST(WireFormatTest, StatementRequestRejectsTrailingBytes) {
  StatementRequest request;
  request.statements = {"SELECT 1"};
  std::string payload = EncodeStatementRequest(request);
  payload.push_back('\0');
  EXPECT_EQ(DecodeStatementRequest(payload).status().error_code(),
            ErrorCode::kWireFormat);
}

TEST(WireFormatTest, StatementRequestRejectsEveryTruncation) {
  StatementRequest request;
  request.request_id = 3;
  request.statements = {"SELECT count(*) FROM t", "\\now"};
  const std::string payload = EncodeStatementRequest(request);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeStatementRequest(std::string_view(payload).substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireFormatTest, StatementResponseRoundTripMixedResults) {
  StatementResponse response;
  response.request_id = 99;
  response.results.push_back(SampleResultSet());
  response.results.push_back(
      Status::TableNotFound("no table named 'gone'"));
  response.results.push_back(Status::Timeout("budget blown"));

  const StatementResponse decoded =
      DecodeStatementResponse(EncodeStatementResponse(response)).value();
  ASSERT_EQ(decoded.results.size(), 3u);
  EXPECT_EQ(decoded.request_id, 99u);

  const ResultSet& rs = decoded.results[0].value();
  EXPECT_EQ(rs.column_names, SampleResultSet().column_names);
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 7);
  EXPECT_EQ(rs.at(0, 1).AsString(), "mycelium");
  EXPECT_TRUE(rs.at(1, 0).is_null());
  EXPECT_EQ(rs.at(1, 2).AsTimestamp(), 42 * kSecond);
  EXPECT_EQ(rs.stats.rows_consumed, 1u);

  // The stable numeric code survives the wire; the message rides along.
  EXPECT_EQ(decoded.results[1].status().error_code(),
            ErrorCode::kTableNotFound);
  EXPECT_EQ(decoded.results[1].status().message(),
            "no table named 'gone'");
  EXPECT_EQ(decoded.results[1].status().ErrorLabel(),
            "E:1203 TableNotFound");
  EXPECT_EQ(decoded.results[2].status().error_code(), ErrorCode::kTimeout);
}

TEST(WireFormatTest, StatementResponseUnknownErrorCodeMapsToInternal) {
  // A peer speaking a NEWER revision may send codes we do not know;
  // they must degrade to kInternal, never crash or masquerade as OK.
  StatementResponse response;
  response.results.push_back(Status::TableNotFound("x"));
  std::string payload = EncodeStatementResponse(response);
  // Patch the u32 error code (offset: u64 id + u32 count + u8 tag).
  payload[13] = 0x39;
  payload[14] = 0x30;  // 0x3039 = 12345, not a known code
  const StatementResponse decoded =
      DecodeStatementResponse(payload).value();
  EXPECT_EQ(decoded.results[0].status().error_code(), ErrorCode::kInternal);
}

TEST(WireFormatTest, ResultSetSerdeRejectsRowCountLargerThanPayload) {
  BufferWriter out;
  out.WriteU32(1);
  out.WriteString("a");
  out.WriteU64(1u << 30);  // a billion rows in a tiny payload
  BufferReader in(out.buffer());
  EXPECT_EQ(DeserializeResultSet(in).status().error_code(),
            ErrorCode::kWireFormat);
}

TEST(WireFormatTest, TruncatedFrameNamesTheShortfall) {
  StatementResponse response;
  response.request_id = 5;
  response.results.push_back(SampleResultSet());
  const std::string payload = EncodeStatementResponse(response);
  // Cut inside the last stats counter: the read needs 8 bytes and finds 3.
  const Status status =
      DecodeStatementResponse(
          std::string_view(payload).substr(0, payload.size() - 5))
          .status();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(status.message(), "truncated: need 8 bytes, have 3");
  // A frame cut before its request's count.
  EXPECT_EQ(DecodeStatementRequest(std::string(10, '\0')).status().message(),
            "truncated: need 8 bytes, have 2");
}

TEST(WireFormatTest, StatementResponseRejectsEveryTruncation) {
  StatementResponse response;
  response.request_id = 3;
  response.results.push_back(SampleResultSet());
  response.results.push_back(Status::Timeout("late"));
  const std::string payload = EncodeStatementResponse(response);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeStatementResponse(std::string_view(payload).substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

// The row-id answers fungusd writes for an insert run are the bytes of a
// RowIdResult ResultSet: pinned by length and FNV-1a hash as encoded
// before the encoder wrote them directly.
TEST(WireFormatTest, RowIdAnswersMatchRowIdResultSets) {
  StatementResponse expected;
  expected.request_id = 41;
  ResponseEncoder encoder(41, 500);
  for (int i = 0; i < 500; ++i) {
    expected.results.push_back(RowIdResult(static_cast<RowId>(i)));
    encoder.AddInt64Answer(kRowIdColumn, i);
  }
  EXPECT_EQ(encoder.num_added(), 500u);
  const std::string payload = encoder.Finish();
  ASSERT_EQ(payload.size(), 30012u);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  EXPECT_EQ(hash, 0xfd4d435d20e4bdcbull);
  EXPECT_EQ(payload, EncodeStatementResponse(expected));
  // One answer spelled out: ok, one column "row_id", one row, int64 tag 1,
  // the id, three zero counters.
  BufferWriter one;
  SerializeInt64Answer(kRowIdColumn, 0x0102, one);
  EXPECT_EQ(one.buffer(),
            std::string("\x01\0\0\0\x06\0\0\0\0\0\0\0row_id"
                        "\x01\0\0\0\0\0\0\0\x01\x02\x01\0\0\0\0\0\0",
                        35) +
                std::string(24, '\0'));
}

TEST(WireFormatTest, RequestEncodesFromTheCallersStatements) {
  const std::vector<std::string> statements = {"\\insert t 1", "SELECT 1"};
  StatementRequest request;
  request.request_id = 9;
  request.deadline_micros = 77;
  request.statements = statements;
  EXPECT_EQ(EncodeStatementRequest(9, 77, statements),
            EncodeStatementRequest(request));
}

TEST(WireFormatTest, EmptyResultSetRoundTrips) {
  ResultSet empty;
  BufferWriter out;
  SerializeResultSet(empty, out);
  BufferReader in(out.buffer());
  const ResultSet decoded = DeserializeResultSet(in).value();
  EXPECT_EQ(decoded.num_columns(), 0u);
  EXPECT_EQ(decoded.num_rows(), 0u);
}

}  // namespace
}  // namespace fungusdb::server
