#include "server/wire_format.h"

#include <cassert>

#include "common/status.h"
#include "query/result_set_serde.h"
#include "server/socket.h"

namespace fungusdb::server {
namespace {

// A request may not claim more statements than a payload of maximum
// size could possibly hold (each statement costs at least a u64 length
// prefix), and no single decoded count may trigger unbounded reserve.
constexpr uint64_t kMaxStatementsPerRequest = 1u << 16;

}  // namespace

std::string EncodeStatementRequest(uint64_t request_id,
                                   uint64_t deadline_micros,
                                   std::span<const std::string> statements) {
  size_t bytes = 20;
  for (const std::string& statement : statements) {
    bytes += 8 + statement.size();
  }
  BufferWriter out;
  out.Reserve(bytes);
  out.WriteU64(request_id);
  out.WriteU64(deadline_micros);
  out.WriteU32(static_cast<uint32_t>(statements.size()));
  for (const std::string& statement : statements) {
    out.WriteString(statement);
  }
  return out.Release();
}

std::string EncodeStatementRequest(const StatementRequest& request) {
  return EncodeStatementRequest(request.request_id, request.deadline_micros,
                                request.statements);
}

Result<StatementRequest> DecodeStatementRequest(std::string_view payload) {
  BufferReader in(payload);
  StatementRequest request;
  uint32_t count = 0;
  if (!in.Read(request.request_id) || !in.Read(request.deadline_micros) ||
      !in.Read(count)) {
    return in.error();
  }
  if (count > kMaxStatementsPerRequest) {
    return Status::WireFormat("request claims " + std::to_string(count) +
                              " statements");
  }
  request.statements.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!in.Read(request.statements.emplace_back())) return in.error();
  }
  if (!in.exhausted()) {
    return Status::WireFormat("trailing bytes after statement request");
  }
  return request;
}

ResponseEncoder::ResponseEncoder(uint64_t request_id, uint32_t num_answers)
    : num_answers_(num_answers) {
  out_.WriteU64(request_id);
  out_.WriteU32(num_answers);
}

void ResponseEncoder::Add(const Result<ResultSet>& answer) {
  if (!answer.ok()) {
    AddError(answer.status());
    return;
  }
  ++added_;
  out_.WriteU8(1);
  SerializeResultSet(answer.value(), out_);
}

void ResponseEncoder::AddError(const Status& status) {
  ++added_;
  out_.WriteU8(0);
  out_.WriteU32(static_cast<uint16_t>(status.error_code()));
  out_.WriteString(status.message());
}

void ResponseEncoder::AddInt64Answer(std::string_view column, int64_t value) {
  ++added_;
  out_.WriteU8(1);
  SerializeInt64Answer(column, value, out_);
}

std::string ResponseEncoder::Finish() {
  assert(added_ == num_answers_ && "a response must answer every statement");
  return out_.Release();
}

std::string EncodeStatementResponse(const StatementResponse& response) {
  ResponseEncoder encoder(response.request_id,
                          static_cast<uint32_t>(response.results.size()));
  for (const Result<ResultSet>& result : response.results) {
    encoder.Add(result);
  }
  return encoder.Finish();
}

Result<StatementResponse> DecodeStatementResponse(
    std::string_view payload) {
  BufferReader in(payload);
  StatementResponse response;
  uint32_t count = 0;
  if (!in.Read(response.request_id) || !in.Read(count)) return in.error();
  if (count > kMaxStatementsPerRequest) {
    return Status::WireFormat("response claims " + std::to_string(count) +
                              " results");
  }
  response.results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t ok = 0;
    if (!in.Read(ok)) return in.error();
    if (ok == 1) {
      Result<ResultSet> result = DeserializeResultSet(in);
      if (!result.ok()) return result.status();
      response.results.push_back(std::move(result));
    } else if (ok == 0) {
      uint32_t raw_code = 0;
      std::string message;
      if (!in.Read(raw_code) || !in.Read(message)) return in.error();
      if (raw_code > UINT16_MAX) {
        return Status::WireFormat("error code out of range");
      }
      response.results.push_back(Status::FromWire(
          ErrorCodeFromWire(static_cast<uint16_t>(raw_code)),
          std::move(message)));
    } else {
      return Status::WireFormat("bad result discriminator " +
                                std::to_string(ok));
    }
  }
  if (!in.exhausted()) {
    return Status::WireFormat("trailing bytes after statement response");
  }
  return response;
}

namespace {

/// The 12-byte frame header; short enough for std::string's inline
/// buffer, so building it allocates nothing.
std::string EncodeFrameHeader(FrameType type, size_t payload_size) {
  BufferWriter out;
  out.WriteU32(kWireMagic);
  out.WriteU32(static_cast<uint32_t>(kWireVersion) |
               (static_cast<uint32_t>(type) << 16));
  out.WriteU32(static_cast<uint32_t>(payload_size));
  return out.Release();
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame = EncodeFrameHeader(type, payload.size());
  frame.append(payload.data(), payload.size());
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::WireFormat("frame header must be " +
                              std::to_string(kFrameHeaderBytes) +
                              " bytes, got " +
                              std::to_string(bytes.size()));
  }
  BufferReader in(bytes);
  FUNGUSDB_ASSIGN_OR_RETURN(uint32_t magic, in.ReadU32());
  if (magic != kWireMagic) {
    return Status::WireFormat("bad magic (not a FungusDB peer?)");
  }
  FUNGUSDB_ASSIGN_OR_RETURN(uint32_t version_and_type, in.ReadU32());
  FrameHeader header;
  header.version = static_cast<uint16_t>(version_and_type & 0xffff);
  if (header.version != kWireVersion) {
    return Status::WireFormat("unsupported protocol version " +
                              std::to_string(header.version));
  }
  const uint16_t raw_type =
      static_cast<uint16_t>(version_and_type >> 16);
  if (raw_type != static_cast<uint16_t>(FrameType::kStatementRequest) &&
      raw_type != static_cast<uint16_t>(FrameType::kStatementResponse)) {
    return Status::WireFormat("unknown frame type " +
                              std::to_string(raw_type));
  }
  header.type = static_cast<FrameType>(raw_type);
  FUNGUSDB_ASSIGN_OR_RETURN(header.payload_size, in.ReadU32());
  if (header.payload_size > kMaxPayloadBytes) {
    return Status::WireFormat("frame payload of " +
                              std::to_string(header.payload_size) +
                              " bytes exceeds the protocol maximum");
  }
  return header;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::WireFormat("refusing to send oversized frame");
  }
  // Header and payload leave in one gather write: no copy of the
  // payload behind the header, and no header-only segment.
  return WriteAll(fd, EncodeFrameHeader(type, payload.size()), payload);
}

Result<Frame> ReadFrame(int fd) {
  char header_bytes[kFrameHeaderBytes];
  FUNGUSDB_RETURN_IF_ERROR(
      ReadExact(fd, header_bytes, kFrameHeaderBytes));
  Frame frame;
  FUNGUSDB_ASSIGN_OR_RETURN(
      frame.header,
      DecodeFrameHeader(
          std::string_view(header_bytes, kFrameHeaderBytes)));
  frame.payload.resize(frame.header.payload_size);
  if (frame.header.payload_size > 0) {
    FUNGUSDB_RETURN_IF_ERROR(ReadExact(fd, frame.payload.data(),
                                       frame.payload.size()));
  }
  return frame;
}

}  // namespace fungusdb::server
