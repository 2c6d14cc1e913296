// Blocking socket transport for the framed RPC protocol.
//
// One deliberately small surface: parse an endpoint spec ("unix:/path" or
// "tcp:host:port"), listen / connect / accept, and move whole frames over
// a connected socket with full-read/full-write loops.  Everything is
// blocking — the router's scatter/gather and the shard's serve loop are
// sequential per connection, and cross-shard parallelism comes from having
// one connection per shard process, not from async I/O.
//
// Failure vocabulary is deterministic: transport errors throw
// std::runtime_error("rpc: ...") with stable messages ("connection
// closed", "connection lost", frame validation errors from
// rpc/frame.hpp), because the router folds them into per-query ok=false
// results whose digests must not vary run to run.
//
// PR 8 adds deadlines to the same vocabulary: a socket configured with
// per-frame send/recv budgets polls before every I/O step and fails a
// frame that cannot complete in time with the deterministic
// "rpc: deadline exceeded after <ms> ms" (the *configured* budget, never
// a measured elapsed time, so the text is stable run to run).  Without a
// budget (the default), behavior is byte-identical to PR 7's fully
// blocking transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "rpc/frame.hpp"

namespace lcs::rpc {

/// A parsed shard address: "unix:/path/to.sock" or "tcp:host:port".
struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;         ///< unix: filesystem path of the socket
  std::string host;         ///< tcp: numeric IPv4 or "localhost"
  std::uint16_t port = 0;   ///< tcp: port (0 = ephemeral, resolved at listen)

  /// Parse a spec; throws std::invalid_argument("rpc: bad endpoint ...").
  static Endpoint parse(const std::string& spec);
  /// The canonical spec string ("unix:/path", "tcp:host:port").
  std::string describe() const;
};

/// Deadline budgets of one RPC client conversation, in milliseconds.
/// 0 means "no deadline" — block indefinitely, exactly as before PR 8.
struct DeadlineOptions {
  int connect_ms = 0;  ///< budget for establishing the connection
  int call_ms = 0;     ///< whole-frame budget for each send_frame/recv_frame
};

/// RAII connected socket.  Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  /// Shut down both directions without closing the fd: wakes a thread
  /// blocked in recv_frame() on this socket (used by server stop()).
  void shutdown_both();

  /// Per-frame deadlines (0 = block indefinitely).  A send_frame that
  /// cannot complete within send_ms — or a recv_frame within recv_ms —
  /// throws the deterministic "rpc: deadline exceeded after <ms> ms",
  /// quoting the configured budget.
  void set_deadlines(int send_ms, int recv_ms) {
    send_deadline_ms_ = send_ms;
    recv_deadline_ms_ = recv_ms;
  }
  int send_deadline_ms() const { return send_deadline_ms_; }
  int recv_deadline_ms() const { return recv_deadline_ms_; }

  /// Write one whole frame; throws "rpc: connection lost" when the peer is
  /// gone mid-write, or the deadline error under a send budget.
  void send_frame(const Frame& frame);

  /// Read one whole frame: exactly one header, validated, then exactly
  /// payload_bytes, validated.  Throws "rpc: connection closed" on a clean
  /// EOF at a frame boundary, "rpc: connection lost" mid-frame or on any
  /// socket error, the frame.hpp errors on malformed bytes, and the
  /// deadline error when a recv budget expires before the frame is whole.
  /// The payload buffer grows with the bytes received, at most 1 MiB ahead
  /// of them, whatever length the header claims.
  Frame recv_frame();

  /// An AF_UNIX socketpair (test harness for the framing layer).
  static std::pair<Socket, Socket> make_pair();

 private:
  int fd_ = -1;
  int send_deadline_ms_ = 0;
  int recv_deadline_ms_ = 0;
};

/// Bound + listening server socket.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&&) noexcept;
  Listener& operator=(Listener&&) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Bind and listen on `endpoint`.  A unix endpoint unlinks a stale
  /// socket file first; a tcp endpoint with port 0 gets an ephemeral port
  /// (read it back from endpoint()).
  static Listener listen(const Endpoint& endpoint);

  /// The endpoint actually bound (tcp port resolved).
  const Endpoint& endpoint() const { return endpoint_; }

  bool valid() const { return fd_.load() >= 0; }

  /// Block until a client connects (polling so close() from another thread
  /// is noticed); returns an invalid Socket once the listener is closed.
  Socket accept();

  /// Close the listening socket (accept() returns invalid afterwards) and
  /// unlink a unix socket file.  Safe to call from a thread other than the
  /// one blocked in accept(): the accept loop polls and notices the close
  /// within its poll interval.
  void close();

 private:
  std::atomic<int> fd_{-1};
  Endpoint endpoint_;
};

/// Connect to `endpoint`; throws "rpc: cannot connect to <spec>" on
/// refusal, or "rpc: deadline exceeded after <ms> ms" when
/// `deadlines.connect_ms` > 0 and the peer does not accept in time.  The
/// returned socket carries `deadlines.call_ms` as both frame budgets.
Socket connect_endpoint(const Endpoint& endpoint, const DeadlineOptions& deadlines = {});

}  // namespace lcs::rpc
