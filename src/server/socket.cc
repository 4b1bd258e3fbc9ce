#include "server/socket.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace fungusdb::server {
namespace {

/// getaddrinfo deals in textual service names, which keeps all byte-
/// order conversion inside libc — no htons/ntohs in this file (the
/// project lint confines raw framing primitives to wire_format).
struct AddrInfoDeleter {
  void operator()(addrinfo* info) const { freeaddrinfo(info); }
};
using AddrInfoPtr = std::unique_ptr<addrinfo, AddrInfoDeleter>;

Result<AddrInfoPtr> Resolve(const std::string& host, uint16_t port,
                            bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* raw = nullptr;
  const std::string service = std::to_string(port);
  const int rc = getaddrinfo(host.empty() ? nullptr : host.c_str(),
                             service.c_str(), &hints, &raw);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve " + host + ":" + service +
                               ": " + gai_strerror(rc));
  }
  return AddrInfoPtr(raw);
}

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port) {
  FUNGUSDB_ASSIGN_OR_RETURN(AddrInfoPtr info, Resolve(host, port, true));
  Status last = Status::Unavailable("no usable address for " + host);
  for (addrinfo* ai = info.get(); ai != nullptr; ai = ai->ai_next) {
    UniqueFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Errno("socket");
      continue;
    }
    const int one = 1;
    setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("bind " + host + ":" + std::to_string(port));
      continue;
    }
    if (::listen(fd.get(), 128) != 0) {
      last = Errno("listen");
      continue;
    }
    return fd;
  }
  return last;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  char service[NI_MAXSERV];
  const int rc = getnameinfo(reinterpret_cast<sockaddr*>(&addr), len,
                             nullptr, 0, service, sizeof(service),
                             NI_NUMERICSERV);
  if (rc != 0) {
    return Status::Internal(std::string("getnameinfo: ") +
                            gai_strerror(rc));
  }
  return static_cast<uint16_t>(std::strtoul(service, nullptr, 10));
}

Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port) {
  FUNGUSDB_ASSIGN_OR_RETURN(AddrInfoPtr info, Resolve(host, port, false));
  Status last = Status::Unavailable("no usable address for " + host);
  for (addrinfo* ai = info.get(); ai != nullptr; ai = ai->ai_next) {
    UniqueFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("connect " + host + ":" + std::to_string(port));
      continue;
    }
    const int one = 1;
    setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
  return last;
}

Status WriteAll(int fd, std::string_view data) {
  return WriteAll(fd, data, {});
}

Status WriteAll(int fd, std::string_view head, std::string_view body) {
  while (!head.empty() || !body.empty()) {
    iovec parts[2] = {};
    int count = 0;
    for (const std::string_view part : {head, body}) {
      if (part.empty()) continue;
      parts[count].iov_base = const_cast<char*>(part.data());
      parts[count].iov_len = part.size();
      ++count;
    }
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = static_cast<size_t>(count);
    // sendmsg is writev with flags: MSG_NOSIGNAL keeps a closed peer an
    // error, not SIGPIPE.
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    const size_t sent = static_cast<size_t>(n);
    const size_t from_head = std::min(sent, head.size());
    head.remove_prefix(from_head);
    body.remove_prefix(sent - from_head);
  }
  return Status::OK();
}

Status ReadExact(int fd, char* buffer, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buffer + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        return Status::ConnectionClosed("peer closed the connection");
      }
      return Status::WireFormat("connection closed mid-frame (" +
                                std::to_string(got) + " of " +
                                std::to_string(len) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace fungusdb::server
