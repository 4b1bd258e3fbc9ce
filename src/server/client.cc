#include "server/client.h"

#include <cstdlib>

#include "server/wire_format.h"

namespace fungusdb::server {

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  FUNGUSDB_ASSIGN_OR_RETURN(UniqueFd fd, ConnectTcp(host, port));
  return Client(std::move(fd));
}

Result<Client> Client::ConnectSpec(std::string_view spec) {
  std::string host = "127.0.0.1";
  std::string_view port_text = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon > 0) host = std::string(spec.substr(0, colon));
    port_text = spec.substr(colon + 1);
  }
  char* end = nullptr;
  const std::string port_str(port_text);
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (port_str.empty() || *end != '\0' || port == 0 || port > 65535) {
    return Status::InvalidArgument("bad connect spec '" + std::string(spec) +
                                   "' (want host:port)");
  }
  return Connect(host, static_cast<uint16_t>(port));
}

Result<std::vector<Result<ResultSet>>> Client::Execute(
    const std::vector<std::string>& statements, uint64_t deadline_micros) {
  if (!fd_.valid()) {
    return Status::ConnectionClosed("client is not connected");
  }
  const uint64_t request_id = next_request_id_++;
  const Status sent = WriteFrame(
      fd_.get(), FrameType::kStatementRequest,
      EncodeStatementRequest(request_id, deadline_micros, statements));
  if (!sent.ok()) {
    fd_.Reset();
    return sent;
  }
  Result<Frame> frame_or = ReadFrame(fd_.get());
  if (!frame_or.ok()) {
    fd_.Reset();
    return frame_or.status();
  }
  const Frame& frame = frame_or.value();
  if (frame.header.type != FrameType::kStatementResponse) {
    fd_.Reset();
    return Status::WireFormat("expected a response frame");
  }
  Result<StatementResponse> response_or =
      DecodeStatementResponse(frame.payload);
  if (!response_or.ok()) {
    fd_.Reset();
    return response_or.status();
  }
  StatementResponse response = std::move(response_or).value();
  // request_id 0 is the server's "could not even decode your request"
  // answer; anything else must echo ours (the protocol is lockstep, so
  // a mismatch means the stream is desynchronized).
  if (response.request_id != request_id && response.request_id != 0) {
    fd_.Reset();
    return Status::WireFormat(
        "response id " + std::to_string(response.request_id) +
        " does not match request id " + std::to_string(request_id));
  }
  return std::move(response.results);
}

Result<ResultSet> Client::ExecuteOne(std::string_view statement,
                                     uint64_t deadline_micros) {
  FUNGUSDB_ASSIGN_OR_RETURN(
      std::vector<Result<ResultSet>> results,
      Execute({std::string(statement)}, deadline_micros));
  if (results.size() != 1) {
    return Status::WireFormat("expected 1 result, got " +
                              std::to_string(results.size()));
  }
  return std::move(results[0]);
}

}  // namespace fungusdb::server
