#ifndef FUNGUSDB_SERVER_SOCKET_H_
#define FUNGUSDB_SERVER_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace fungusdb::server {

/// Owning POSIX file descriptor. Move-only; closes on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor now (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// Opens a TCP listener on host:port (port 0 picks an ephemeral port;
/// read it back with LocalPort). The socket has SO_REUSEADDR set and a
/// listen backlog sized for bursts of simultaneous connects.
Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port);

/// The port a bound socket actually listens on.
Result<uint16_t> LocalPort(int fd);

/// Blocking connect to host:port. TCP_NODELAY is set: the protocol is
/// request/response, so Nagle only adds latency.
Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port);

/// Writes all of `data`: the gather form below with an empty body.
Status WriteAll(int fd, std::string_view data);

/// Writes all of `head` then all of `body` without joining them: each
/// attempt is one gather send of what is left of both, so a short
/// header never leaves on its own for Nagle to hold back the body (the
/// accepted side does not set TCP_NODELAY). Retries on short writes
/// and EINTR.
Status WriteAll(int fd, std::string_view head, std::string_view body);

/// Reads exactly `len` bytes into `buffer`. A clean EOF before the
/// first byte fails with ConnectionClosed (distinguishable by error
/// code); EOF mid-buffer fails with WireFormat (torn frame).
Status ReadExact(int fd, char* buffer, size_t len);

}  // namespace fungusdb::server

#endif  // FUNGUSDB_SERVER_SOCKET_H_
