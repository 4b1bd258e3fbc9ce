#ifndef FUNGUSDB_SERVER_WIRE_FORMAT_H_
#define FUNGUSDB_SERVER_WIRE_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer_io.h"
#include "common/result.h"
#include "fungusdb/error_code.h"
#include "query/result_set.h"

namespace fungusdb::server {

/// FungusDB wire protocol v1 — the ONLY place in the tree that lays
/// out bytes for the network (enforced by the `wire-framing` project
/// lint rule). Every frame is:
///
///   offset  size  field
///        0     4  magic "FGWP" (little-endian u32 0x50574746)
///        4     2  protocol version (u16, currently 1)
///        6     2  frame type (u16, FrameType)
///        8     4  payload length in bytes (u32, <= kMaxPayloadBytes)
///       12     n  payload
///
/// All integers are little-endian (BufferWriter's encoding — the
/// snapshot and journal formats made that choice first). A peer that
/// sees a bad magic, an unknown version, or an oversized length MUST
/// drop the connection: framing can no longer be trusted.
inline constexpr uint32_t kWireMagic = 0x50574746;  // "FGWP"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : uint16_t {
  /// Client -> server: a batch of statements to execute in order.
  kStatementRequest = 1,
  /// Server -> client: one result per statement of the request.
  kStatementResponse = 2,
};

struct FrameHeader {
  uint16_t version = kWireVersion;
  FrameType type = FrameType::kStatementRequest;
  uint32_t payload_size = 0;
};

/// A batch of statements (SQL or registry meta commands, e.g.
/// `\health`).
struct StatementRequest {
  uint64_t request_id = 0;
  /// Per-request wall-clock budget in microseconds, measured from
  /// arrival at the server. A request still queued when its budget runs
  /// out is answered with E:2003 Timeout instead of being executed.
  /// 0 = no deadline.
  uint64_t deadline_micros = 0;
  std::vector<std::string> statements;
};

struct StatementResponse {
  uint64_t request_id = 0;
  std::vector<Result<ResultSet>> results;
};

// --- Payload codecs (header-less; framing is separate). ---

/// A request payload straight from the caller's statements, with no
/// StatementRequest to copy them into.
std::string EncodeStatementRequest(uint64_t request_id,
                                   uint64_t deadline_micros,
                                   std::span<const std::string> statements);
std::string EncodeStatementRequest(const StatementRequest& request);
Result<StatementRequest> DecodeStatementRequest(std::string_view payload);

/// Writes a response payload one answer at a time, so a worker encodes
/// its request's answers as it produces them: u64 request id, u32
/// answer count, then per answer either u8 1 + a SerializeResultSet
/// body or u8 0 + u32 error code + message string. Exactly
/// `num_answers` answers must be added before Finish().
class ResponseEncoder {
 public:
  ResponseEncoder(uint64_t request_id, uint32_t num_answers);

  void Add(const Result<ResultSet>& answer);
  void AddError(const Status& status);
  /// The bytes of Add(ResultSet) for a one-column, one-row int64 answer
  /// with zero statistics — an `\insert`'s row id — without building
  /// the ResultSet.
  void AddInt64Answer(std::string_view column, int64_t value);

  uint32_t num_added() const { return added_; }
  std::string Finish();

 private:
  BufferWriter out_;
  uint32_t num_answers_;
  uint32_t added_ = 0;
};

std::string EncodeStatementResponse(const StatementResponse& response);
Result<StatementResponse> DecodeStatementResponse(std::string_view payload);

// --- Framing. ---

/// Header + payload as one contiguous byte string ready to send.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Validates magic/version/length. `bytes` must be exactly
/// kFrameHeaderBytes.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

// --- Blocking frame I/O over a connected socket. ---

Status WriteFrame(int fd, FrameType type, std::string_view payload);

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Reads one full frame. ConnectionClosed when the peer hangs up
/// between frames; WireFormat on torn or malformed framing.
Result<Frame> ReadFrame(int fd);

}  // namespace fungusdb::server

#endif  // FUNGUSDB_SERVER_WIRE_FORMAT_H_
