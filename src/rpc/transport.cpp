#include "rpc/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace lcs::rpc {

namespace {

[[noreturn]] void bad(const std::string& what) { throw std::runtime_error("rpc: " + what); }

/// Largest step by which recv_frame grows a payload buffer ahead of the
/// bytes it has received.
constexpr std::size_t kRecvChunkBytes = std::size_t{1} << 20;

/// An absolute deadline derived from a millisecond budget.  budget_ms == 0
/// means "none"; the error text always quotes the configured budget, never
/// a measured elapsed time, so deadline failures are deterministic strings.
struct Deadline {
  int budget_ms = 0;
  std::chrono::steady_clock::time_point at{};

  static Deadline after(int budget_ms) {
    Deadline d;
    d.budget_ms = budget_ms;
    if (budget_ms > 0)
      d.at = std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
    return d;
  }

  int remaining_ms() const {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          at - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  }

  [[noreturn]] void expired() const {
    bad("deadline exceeded after " + std::to_string(budget_ms) + " ms");
  }
};

/// Block until `fd` is ready for `events` or the deadline passes (throws
/// the deadline error).  No-op without a deadline: the plain blocking
/// syscalls already wait.
void poll_or_deadline(int fd, short events, const Deadline& deadline) {
  while (true) {
    pollfd p{fd, events, 0};
    const int ready = ::poll(&p, 1, deadline.remaining_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;
      bad("connection lost");
    }
    if (ready == 0) deadline.expired();
    return;
  }
}

/// Full-write loop; distinguishes nothing about errno — any failure is the
/// one deterministic "connection lost" (or the deadline error under a send
/// budget).  With a deadline the writes are non-blocking so a peer that
/// stops reading cannot pin the caller past the budget.
void write_all(int fd, const std::byte* data, std::size_t size, const Deadline& deadline) {
  std::size_t done = 0;
  while (done < size) {
    int flags = MSG_NOSIGNAL;
    if (deadline.budget_ms > 0) {
      poll_or_deadline(fd, POLLOUT, deadline);
      flags |= MSG_DONTWAIT;
    }
    const ssize_t wrote = ::send(fd, data + done, size - done, flags);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (deadline.budget_ms > 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      bad("connection lost");
    }
    if (wrote == 0) bad("connection lost");
    done += static_cast<std::size_t>(wrote);
  }
}

/// Full-read loop.  A clean EOF before the first byte reports "closed"
/// (normal peer departure at a frame boundary); an EOF after it reports
/// "lost" (a torn frame); a recv budget that expires first reports the
/// deadline error.
void read_all(int fd, std::byte* data, std::size_t size, bool at_boundary,
              const Deadline& deadline) {
  std::size_t done = 0;
  while (done < size) {
    if (deadline.budget_ms > 0) poll_or_deadline(fd, POLLIN, deadline);
    const ssize_t got = ::read(fd, data + done, size - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      bad("connection lost");
    }
    if (got == 0) {
      if (at_boundary && done == 0) bad("connection closed");
      bad("connection lost");
    }
    done += static_cast<std::size_t>(got);
  }
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    bad("unix socket path too long: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = (host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1)
    bad("bad tcp host '" + host + "' (numeric IPv4 or localhost)");
  return addr;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint e;
  if (spec.rfind("unix:", 0) == 0) {
    e.kind = Kind::kUnix;
    e.path = spec.substr(5);
    if (e.path.empty())
      throw std::invalid_argument("rpc: bad endpoint '" + spec + "' (empty unix path)");
    return e;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size())
      throw std::invalid_argument("rpc: bad endpoint '" + spec + "' (want tcp:host:port)");
    e.kind = Kind::kTcp;
    e.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port > 65535)
      throw std::invalid_argument("rpc: bad endpoint '" + spec + "' (bad port)");
    e.port = static_cast<std::uint16_t>(port);
    return e;
  }
  throw std::invalid_argument("rpc: bad endpoint '" + spec + "' (want unix:... or tcp:...)");
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_),
      send_deadline_ms_(other.send_deadline_ms_),
      recv_deadline_ms_(other.recv_deadline_ms_) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    send_deadline_ms_ = other.send_deadline_ms_;
    recv_deadline_ms_ = other.recv_deadline_ms_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::send_frame(const Frame& frame) {
  if (fd_ < 0) bad("connection lost");
  const std::vector<std::byte> bytes = encode_frame(frame);
  write_all(fd_, bytes.data(), bytes.size(), Deadline::after(send_deadline_ms_));
}

Frame Socket::recv_frame() {
  if (fd_ < 0) bad("connection lost");
  // One budget covers the whole frame: a peer trickling header bytes and a
  // peer stalling mid-payload hit the same deterministic deadline error.
  const Deadline deadline = Deadline::after(recv_deadline_ms_);
  std::byte header_bytes[kFrameHeaderBytes];
  read_all(fd_, header_bytes, kFrameHeaderBytes, /*at_boundary=*/true, deadline);
  const FrameHeader header = decode_frame_header(header_bytes, kFrameHeaderBytes);
  Frame frame;
  frame.type = header.type;
  // The length prefix is the peer's claim, not a fact: the buffer grows one
  // bounded chunk at a time as bytes actually arrive, so a forged header
  // costs at most one chunk before the connection fails.
  const auto total = static_cast<std::size_t>(header.payload_bytes);
  while (frame.payload.size() < total) {
    const std::size_t done = frame.payload.size();
    const std::size_t chunk = std::min(kRecvChunkBytes, total - done);
    frame.payload.resize(done + chunk);
    read_all(fd_, frame.payload.data() + done, chunk, /*at_boundary=*/false, deadline);
  }
  verify_frame_payload(header, frame.payload.data(), frame.payload.size());
  return frame;
}

std::pair<Socket, Socket> Socket::make_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) bad("socketpair failed");
  return {Socket(fds[0]), Socket(fds[1])};
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), endpoint_(std::move(other.endpoint_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1));
    endpoint_ = std::move(other.endpoint_);
  }
  return *this;
}

Listener::~Listener() { close(); }

Listener Listener::listen(const Endpoint& endpoint) {
  Listener l;
  l.endpoint_ = endpoint;
  int fd = -1;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    std::error_code ignored;
    std::filesystem::remove(endpoint.path, ignored);  // stale socket file
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) bad("cannot create socket for " + endpoint.describe());
    const sockaddr_un addr = unix_address(endpoint.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
      bad("cannot bind " + endpoint.describe());
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) bad("cannot create socket for " + endpoint.describe());
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = tcp_address(endpoint.host, endpoint.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
      bad("cannot bind " + endpoint.describe());
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      l.endpoint_.port = ntohs(addr.sin_port);
  }
  if (::listen(fd, SOMAXCONN) != 0) bad("cannot listen on " + endpoint.describe());
  l.fd_.store(fd);
  return l;
}

Socket Listener::accept() {
  while (true) {
    const int fd = fd_.load();
    if (fd < 0) break;
    // Poll with a short timeout so a concurrent close() is noticed: a
    // blocking accept() on a closed fd is not reliably interrupted.
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, /*timeout_ms=*/50);
    if (fd_.load() < 0) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Socket();
    }
    if (ready == 0) continue;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Socket();
    }
    return Socket(conn);
  }
  return Socket();
}

void Listener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::close(fd);
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      std::error_code ignored;
      std::filesystem::remove(endpoint_.path, ignored);
    }
  }
}

namespace {

/// Connect with an optional budget: non-blocking connect, poll for
/// writability, then read back SO_ERROR.  A refusal is the usual "cannot
/// connect"; running out the budget is the deadline error.
int connect_with_deadline(int fd, const sockaddr* addr, socklen_t len,
                          const Endpoint& endpoint, const Deadline& deadline) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && (errno == EINPROGRESS || errno == EAGAIN)) {
    while (true) {
      pollfd p{fd, POLLOUT, 0};
      const int ready = ::poll(&p, 1, deadline.remaining_ms());
      if (ready < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      if (ready == 0) {
        ::close(fd);
        deadline.expired();
      }
      break;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) return -1;
    rc = 0;
  }
  ::fcntl(fd, F_SETFL, flags);
  (void)endpoint;
  return rc;
}

}  // namespace

Socket connect_endpoint(const Endpoint& endpoint, const DeadlineOptions& deadlines) {
  int fd = -1;
  int rc = -1;
  const Deadline deadline = Deadline::after(deadlines.connect_ms);
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) bad("cannot create socket for " + endpoint.describe());
    const sockaddr_un addr = unix_address(endpoint.path);
    if (deadline.budget_ms > 0)
      rc = connect_with_deadline(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                                 endpoint, deadline);
    else
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) bad("cannot create socket for " + endpoint.describe());
    const sockaddr_in addr = tcp_address(endpoint.host, endpoint.port);
    if (deadline.budget_ms > 0)
      rc = connect_with_deadline(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                                 endpoint, deadline);
    else
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    ::close(fd);
    bad("cannot connect to " + endpoint.describe());
  }
  Socket socket(fd);
  socket.set_deadlines(deadlines.call_ms, deadlines.call_ms);
  return socket;
}

}  // namespace lcs::rpc
