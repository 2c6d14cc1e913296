// RPC protocol coverage (PR 7): framing, corruption rejection, transport,
// and the wire codec.
//
// The contract under test: a frame survives encode → decode bit-exactly;
// every way of corrupting the bytes — flips, truncations, oversized
// lengths, version skew, trailing garbage — is rejected with the exact
// deterministic "rpc: ..." message the format documents, never a crash,
// hang or huge allocation; and the QueryRequest/QueryResult wire codec is
// a lossless round trip with the same strictness.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "rpc/frame.hpp"
#include "rpc/shard.hpp"
#include "rpc/transport.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using rpc::Endpoint;
using rpc::Frame;
using rpc::FrameType;
using rpc::Socket;
using rpc::kFrameHeaderBytes;
using rpc::kMaxFramePayloadBytes;

std::vector<std::byte> random_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::byte>(rng() & 0xff);
  return out;
}

Frame make_frame(FrameType type, std::vector<std::byte> payload) {
  Frame f;
  f.type = type;
  f.payload = std::move(payload);
  return f;
}

/// The exact message decode_frame throws for `bytes`, or "" when it
/// succeeds — the corruption matrix asserts on these verbatim.
std::string decode_error(const std::vector<std::byte>& bytes) {
  try {
    (void)rpc::decode_frame(bytes.data(), bytes.size());
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

/// Field offsets of the 32-byte wire header (documented in rpc/frame.hpp).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffType = 5;
constexpr std::size_t kOffReserved = 6;
constexpr std::size_t kOffPayloadBytes = 8;
constexpr std::size_t kOffHeaderChecksum = 24;

/// Rewrite the header checksum after a deliberate field edit, so the test
/// reaches the validation step after the checksum instead of tripping it.
void reseal_header(std::vector<std::byte>& bytes) {
  std::memset(bytes.data() + kOffHeaderChecksum, 0, 8);
  const std::uint64_t sum = checksum_bytes(bytes.data(), kFrameHeaderBytes);
  std::memcpy(bytes.data() + kOffHeaderChecksum, &sum, 8);
}

// ---------------------------------------------------------------------------
// Frame round trips

TEST(RpcFrame, RoundTripsEveryTypeAndSize) {
  const FrameType types[] = {FrameType::kHello,   FrameType::kHelloAck,
                             FrameType::kRunBatch, FrameType::kResults,
                             FrameType::kError,    FrameType::kShutdown,
                             FrameType::kShutdownAck};
  const std::size_t sizes[] = {0, 1, 7, 8, 31, 32, 33, 1000, 65536};
  std::uint64_t seed = 1;
  for (const FrameType type : types) {
    for (const std::size_t size : sizes) {
      const Frame in = make_frame(type, random_payload(size, seed++));
      const std::vector<std::byte> bytes = rpc::encode_frame(in);
      ASSERT_EQ(bytes.size(), kFrameHeaderBytes + size);
      const Frame out = rpc::decode_frame(bytes.data(), bytes.size());
      EXPECT_EQ(out.type, in.type);
      EXPECT_EQ(out.payload, in.payload);
    }
  }
}

TEST(RpcFrame, EncodingIsDeterministic) {
  const Frame f = make_frame(FrameType::kRunBatch, random_payload(257, 9));
  EXPECT_EQ(rpc::encode_frame(f), rpc::encode_frame(f));
}

TEST(RpcFrame, StreamingDecodeMatchesWholeFrameDecode) {
  const Frame in = make_frame(FrameType::kResults, random_payload(513, 3));
  const std::vector<std::byte> bytes = rpc::encode_frame(in);
  const rpc::FrameHeader header = rpc::decode_frame_header(bytes.data(), kFrameHeaderBytes);
  EXPECT_EQ(header.type, in.type);
  EXPECT_EQ(header.payload_bytes, in.payload.size());
  rpc::verify_frame_payload(header, bytes.data() + kFrameHeaderBytes,
                            bytes.size() - kFrameHeaderBytes);
}

// ---------------------------------------------------------------------------
// Corruption matrix

TEST(RpcFrame, EveryTruncationIsRejected) {
  const std::vector<std::byte> bytes =
      rpc::encode_frame(make_frame(FrameType::kRunBatch, random_payload(100, 4)));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::byte> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_EQ(decode_error(cut), "rpc: frame truncated") << "at length " << len;
  }
}

TEST(RpcFrame, EverySingleByteFlipIsRejected) {
  const std::vector<std::byte> bytes =
      rpc::encode_frame(make_frame(FrameType::kResults, random_payload(64, 5)));
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::vector<std::byte> flipped = bytes;
      flipped[at] ^= static_cast<std::byte>(1u << bit);
      const std::string error = decode_error(flipped);
      EXPECT_FALSE(error.empty()) << "flip at byte " << at << " bit " << bit << " was accepted";
      EXPECT_EQ(error.rfind("rpc: ", 0), 0u) << error;
    }
  }
}

TEST(RpcFrame, TrailingBytesAreRejected) {
  std::vector<std::byte> bytes =
      rpc::encode_frame(make_frame(FrameType::kHello, {}));
  bytes.push_back(std::byte{0});
  EXPECT_EQ(decode_error(bytes), "rpc: frame has trailing bytes");
}

TEST(RpcFrame, ExactMessagesPerValidationStep) {
  const std::vector<std::byte> good =
      rpc::encode_frame(make_frame(FrameType::kError, random_payload(16, 6)));

  std::vector<std::byte> bad_magic = good;
  bad_magic[0] = std::byte{'X'};
  EXPECT_EQ(decode_error(bad_magic), "rpc: bad frame magic");

  std::vector<std::byte> skewed = good;
  skewed[kOffVersion] = std::byte{2};
  reseal_header(skewed);
  EXPECT_EQ(decode_error(skewed), "rpc: unsupported protocol version 2");

  std::vector<std::byte> reserved = good;
  reserved[kOffReserved] = std::byte{1};
  reseal_header(reserved);
  EXPECT_EQ(decode_error(reserved), "rpc: reserved frame bits set");

  std::vector<std::byte> bad_type = good;
  bad_type[kOffType] = std::byte{0};
  reseal_header(bad_type);
  EXPECT_EQ(decode_error(bad_type), "rpc: unknown frame type 0");
  bad_type[kOffType] = std::byte{200};
  reseal_header(bad_type);
  EXPECT_EQ(decode_error(bad_type), "rpc: unknown frame type 200");

  // An oversized length prefix must be rejected before any allocation —
  // this is the frame that would otherwise drive a reader into a huge
  // resize.
  std::vector<std::byte> oversized = good;
  const std::uint64_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(oversized.data() + kOffPayloadBytes, &huge, 8);
  reseal_header(oversized);
  EXPECT_EQ(decode_error(oversized),
            "rpc: frame payload too large (" + std::to_string(huge) + " bytes)");

  std::vector<std::byte> bad_header_sum = good;
  bad_header_sum[kOffHeaderChecksum] ^= std::byte{1};
  EXPECT_EQ(decode_error(bad_header_sum), "rpc: frame header checksum mismatch");

  std::vector<std::byte> bad_payload = good;
  bad_payload[kFrameHeaderBytes + 3] ^= std::byte{0x10};
  EXPECT_EQ(decode_error(bad_payload), "rpc: frame payload checksum mismatch");
}

// ---------------------------------------------------------------------------
// Transport

TEST(RpcTransport, SocketpairRoundTripsFrames) {
  auto [a, b] = Socket::make_pair();
  const Frame sent = make_frame(FrameType::kRunBatch, random_payload(2048, 7));
  a.send_frame(sent);
  a.send_frame(make_frame(FrameType::kShutdown, {}));
  const Frame first = b.recv_frame();
  EXPECT_EQ(first.type, sent.type);
  EXPECT_EQ(first.payload, sent.payload);
  EXPECT_EQ(b.recv_frame().type, FrameType::kShutdown);
}

TEST(RpcTransport, EofAtFrameBoundaryIsConnectionClosed) {
  auto [a, b] = Socket::make_pair();
  a.close();
  try {
    (void)b.recv_frame();
    FAIL() << "recv_frame on a closed peer returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rpc: connection closed");
  }
}

TEST(RpcTransport, EofMidFrameIsConnectionLost) {
  auto [a, b] = Socket::make_pair();
  const std::vector<std::byte> bytes =
      rpc::encode_frame(make_frame(FrameType::kResults, random_payload(100, 8)));
  // Deliver only half the frame, then hang up.
  const ssize_t wrote = ::write(a.fd(), bytes.data(), bytes.size() / 2);
  ASSERT_EQ(wrote, static_cast<ssize_t>(bytes.size() / 2));
  a.close();
  try {
    (void)b.recv_frame();
    FAIL() << "recv_frame on a torn frame returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rpc: connection lost");
  }
}

TEST(RpcTransport, ForgedLengthPrefixDoesNotDriveTheAllocation) {
  // A valid, resealed header claiming the largest legal payload, then a
  // hang-up: the reader must report a torn frame without first zero-filling
  // a buffer of the claimed size.
  auto [a, b] = Socket::make_pair();
  std::vector<std::byte> header = rpc::encode_frame(make_frame(FrameType::kRunBatch, {}));
  const std::uint64_t claimed = kMaxFramePayloadBytes;
  std::memcpy(header.data() + kOffPayloadBytes, &claimed, sizeof(claimed));
  reseal_header(header);
  const ssize_t wrote = ::write(a.fd(), header.data(), header.size());
  ASSERT_EQ(wrote, static_cast<ssize_t>(header.size()));
  a.close();
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  try {
    (void)b.recv_frame();
    FAIL() << "recv_frame on a forged length prefix returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rpc: connection lost");
  }
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64L * 1024)  // ru_maxrss is in KiB
      << "peak RSS grew by " << (after.ru_maxrss - before.ru_maxrss) << " KiB";
}

TEST(RpcTransport, ListenerAcceptsAndCrossThreadCloseUnblocks) {
  const Endpoint ep = Endpoint::parse("tcp:127.0.0.1:0");
  rpc::Listener listener = rpc::Listener::listen(ep);
  ASSERT_TRUE(listener.valid());
  ASSERT_GT(listener.endpoint().port, 0) << "ephemeral port not resolved";

  std::thread client([spec = listener.endpoint()] {
    Socket s = rpc::connect_endpoint(spec);
    s.send_frame(Frame{FrameType::kHello, {}});
  });
  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  EXPECT_EQ(conn.recv_frame().type, FrameType::kHello);
  client.join();

  // close() from another thread must unblock a pending accept().
  std::thread closer([&listener] { listener.close(); });
  Socket none = listener.accept();
  EXPECT_FALSE(none.valid());
  closer.join();
  EXPECT_FALSE(listener.valid());
}

TEST(RpcTransport, EndpointParseAndDescribe) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.describe(), "unix:/tmp/x.sock");

  const Endpoint t = Endpoint::parse("tcp:localhost:9001");
  EXPECT_EQ(t.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "localhost");
  EXPECT_EQ(t.port, 9001);
  EXPECT_EQ(t.describe(), "tcp:localhost:9001");

  EXPECT_THROW(Endpoint::parse("http:foo"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("unix:"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp:nohost"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp:h:99999"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp:h:12x"), std::invalid_argument);
}

TEST(RpcTransport, EndpointParseRejectionMessagesAreExact) {
  const auto parse_error = [](const std::string& spec) {
    try {
      (void)Endpoint::parse(spec);
      return std::string();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(parse_error("unix:"), "rpc: bad endpoint 'unix:' (empty unix path)");
  EXPECT_EQ(parse_error("tcp:nohost"), "rpc: bad endpoint 'tcp:nohost' (want tcp:host:port)");
  EXPECT_EQ(parse_error("tcp::123"), "rpc: bad endpoint 'tcp::123' (want tcp:host:port)");
  EXPECT_EQ(parse_error("tcp:h:"), "rpc: bad endpoint 'tcp:h:' (want tcp:host:port)");
  EXPECT_EQ(parse_error("tcp:h:99999"), "rpc: bad endpoint 'tcp:h:99999' (bad port)");
  EXPECT_EQ(parse_error("tcp:h:12x"), "rpc: bad endpoint 'tcp:h:12x' (bad port)");
  EXPECT_EQ(parse_error("http:foo"), "rpc: bad endpoint 'http:foo' (want unix:... or tcp:...)");
  EXPECT_EQ(parse_error(""), "rpc: bad endpoint '' (want unix:... or tcp:...)");
}

// ---------------------------------------------------------------------------
// Socket deadlines (PR 8)

TEST(RpcTransport, RecvDeadlineFiresWithTheConfiguredBudgetInTheText) {
  auto [a, b] = Socket::make_pair();
  b.set_deadlines(0, 50);
  try {
    (void)b.recv_frame();
    FAIL() << "recv_frame returned with nothing to read";
  } catch (const std::runtime_error& e) {
    // The text quotes the *configured* budget, never a measured time.
    EXPECT_STREQ(e.what(), "rpc: deadline exceeded after 50 ms");
  }
  // The deadline fired before any byte was read, so the stream is intact:
  // once the peer does send, the same socket still works.
  a.send_frame(make_frame(FrameType::kHello, {}));
  EXPECT_EQ(b.recv_frame().type, FrameType::kHello);
}

TEST(RpcTransport, SendDeadlineFiresWhenThePeerStopsReading) {
  auto [a, b] = Socket::make_pair();
  a.set_deadlines(50, 0);
  // A payload far past the socketpair buffer: with nobody draining b, the
  // send must hit its deadline instead of blocking forever.
  const Frame big = make_frame(FrameType::kRunBatch, random_payload(8u << 20, 10));
  try {
    a.send_frame(big);
    FAIL() << "oversized send to a stalled peer returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rpc: deadline exceeded after 50 ms");
  }
  b.close();
}

TEST(RpcTransport, ConnectCarriesCallDeadlinesOntoTheSocket) {
  rpc::Listener listener = rpc::Listener::listen(Endpoint::parse("tcp:127.0.0.1:0"));
  rpc::DeadlineOptions deadlines;
  deadlines.connect_ms = 2000;
  deadlines.call_ms = 250;
  // The kernel backlog completes the handshake before accept(), so no
  // accept thread is needed just to connect.
  Socket s = rpc::connect_endpoint(listener.endpoint(), deadlines);
  ASSERT_TRUE(s.valid());
  EXPECT_EQ(s.send_deadline_ms(), 250);
  EXPECT_EQ(s.recv_deadline_ms(), 250);
  // Default-connected sockets keep the no-deadline legacy behavior.
  Socket legacy = rpc::connect_endpoint(listener.endpoint());
  EXPECT_EQ(legacy.send_deadline_ms(), 0);
  EXPECT_EQ(legacy.recv_deadline_ms(), 0);
  listener.close();
}

TEST(RpcTransport, RefusedConnectUnderADeadlineIsStillCannotConnect) {
  Endpoint dead;
  {
    rpc::Listener listener = rpc::Listener::listen(Endpoint::parse("tcp:127.0.0.1:0"));
    dead = listener.endpoint();
    listener.close();  // the port is now closed: refusal, not timeout
  }
  rpc::DeadlineOptions deadlines;
  deadlines.connect_ms = 2000;
  try {
    (void)rpc::connect_endpoint(dead, deadlines);
    FAIL() << "connect to a closed port returned";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "rpc: cannot connect to " + dead.describe());
  }
}

// ---------------------------------------------------------------------------
// Server shutdown edges (PR 8)

std::shared_ptr<const service::ShortcutService> tiny_service() {
  Rng rng(5);
  return std::make_shared<const service::ShortcutService>(
      service::GraphSnapshot::build(graph::connected_gnm(60, 150, rng), {}), 7);
}

TEST(RpcShardServer, StopRacesAnInFlightConnection) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("lcs-rpc-stop-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    rpc::ShardServer server(tiny_service(),
                            Endpoint::parse("unix:" + (dir / "s.sock").string()));
    // Connection A: mid-conversation (handshake done, more frames possible).
    Socket a = rpc::connect_endpoint(server.endpoint());
    a.send_frame(make_frame(FrameType::kHello, {}));
    ASSERT_EQ(a.recv_frame().type, FrameType::kHelloAck);
    // Connection B: accepted but never spoke — its server thread is parked
    // in recv_frame.
    Socket b = rpc::connect_endpoint(server.endpoint());
    // stop() must shut both down and join every connection thread without
    // hanging, even though neither client disconnected first.
    server.stop();
    EXPECT_THROW((void)a.recv_frame(), std::runtime_error);
    EXPECT_THROW((void)b.recv_frame(), std::runtime_error);
  }
  std::filesystem::remove_all(dir);
}

TEST(RpcShardServer, ShutdownServerAgainstADeadServerIsBestEffort) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("lcs-rpc-dead-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    const std::string sock = (dir / "s.sock").string();
    auto server = std::make_unique<rpc::ShardServer>(tiny_service(),
                                                     Endpoint::parse("unix:" + sock));
    rpc::RpcShard shard(server->endpoint());
    ASSERT_EQ(shard.info().seed, 7u);
    server.reset();  // the server dies with the connection still open
    shard.shutdown_server();  // must return promptly, not throw or hang
    // A shard that never attached is equally fine to "shut down".
    rpc::RpcShard never(Endpoint::parse("unix:" + (dir / "nothing.sock").string()));
    EXPECT_THROW((void)never.info(), service::ShardUnavailable);
    never.shutdown_server();
  }
  std::filesystem::remove_all(dir);
}

TEST(RpcShardServer, DetachedRpcShardReattachesOnceTheServerIsBack) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("lcs-rpc-re-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    const Endpoint ep = Endpoint::parse("unix:" + (dir / "s.sock").string());
    const auto svc = tiny_service();
    // Dialed while nothing listens: constructing is fine, using throws the
    // deterministic connect error, reattach() keeps failing...
    rpc::RpcShard shard(ep);
    try {
      (void)shard.info();
      FAIL() << "info() on a detached shard returned";
    } catch (const service::ShardUnavailable& e) {
      EXPECT_EQ(std::string(e.what()), "rpc: cannot connect to " + ep.describe());
    }
    EXPECT_THROW((void)shard.reattach(), service::ShardUnavailable);
    // ...until the server appears, when the same backend object recovers.
    rpc::ShardServer server(svc, ep);
    const service::ShardInfo info = shard.reattach();
    EXPECT_EQ(info.seed, 7u);
    EXPECT_EQ(info.fingerprint, svc->snapshot().fingerprint());
    shard.send_batch({});
    EXPECT_TRUE(shard.gather().empty());
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Wire codec

std::vector<service::QueryRequest> sample_requests() {
  std::vector<service::QueryRequest> batch;
  service::QueryRequest a;
  a.id = 42;
  a.kind = service::QueryKind::kShortcutQuality;
  a.beta = 1.25;
  a.num_parts = 9;
  batch.push_back(a);
  service::QueryRequest b;
  b.id = 7;
  b.kind = service::QueryKind::kMincut;
  b.karger_trials = 3;
  b.eps = 0.75;
  b.diameter = 11;
  batch.push_back(b);
  service::QueryRequest c;
  c.id = 9;
  c.kind = service::QueryKind::kPointToPoint;
  c.s = 4;
  c.t = 31;
  batch.push_back(c);
  return batch;
}

TEST(RpcWire, RequestsRoundTrip) {
  const auto batch = sample_requests();
  const std::vector<std::byte> bytes = service::encode_requests(batch);
  const auto out = service::decode_requests(bytes.data(), bytes.size());
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i].id, batch[i].id);
    EXPECT_EQ(out[i].kind, batch[i].kind);
    EXPECT_EQ(out[i].beta, batch[i].beta);
    EXPECT_EQ(out[i].num_parts, batch[i].num_parts);
    EXPECT_EQ(out[i].diameter, batch[i].diameter);
    EXPECT_EQ(out[i].karger_trials, batch[i].karger_trials);
    EXPECT_EQ(out[i].eps, batch[i].eps);
    EXPECT_EQ(out[i].s, batch[i].s);
    EXPECT_EQ(out[i].t, batch[i].t);
  }
}

TEST(RpcWire, EmptyBatchRoundTrips) {
  const std::vector<std::byte> bytes = service::encode_requests({});
  ASSERT_EQ(bytes.size(), 8u);  // just the count prefix
  EXPECT_TRUE(service::decode_requests(bytes.data(), bytes.size()).empty());
  const std::vector<std::byte> rbytes = service::encode_results({});
  EXPECT_TRUE(service::decode_results(rbytes.data(), rbytes.size()).empty());
}

TEST(RpcWire, ResultsRoundTripIncludingDigest) {
  std::vector<service::QueryResult> results(2);
  results[0].id = 1;
  results[0].kind = service::QueryKind::kMst;
  results[0].ok = true;
  results[0].latency_ms = 1.5;
  results[0].value = 777;
  results[0].cardinality = 9;
  results[0].rounds = 31;
  results[0].content_hash = 0xabcdef;
  results[1].id = 2;
  results[1].kind = service::QueryKind::kMincut;
  results[1].ok = false;
  results[1].error = "mincut needs a connected graph";
  results.emplace_back();
  results[2].id = 3;
  results[2].kind = service::QueryKind::kPointToPoint;
  results[2].ok = true;
  results[2].s = 12;
  results[2].t = 60;
  results[2].distance = 0xdeadbeefULL;
  results[2].settled_nodes = 450;
  const std::vector<std::byte> bytes = service::encode_results(results);
  const auto out = service::decode_results(bytes.data(), bytes.size());
  ASSERT_EQ(out.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(out[i].digest(), results[i].digest()) << "result " << i;
    EXPECT_EQ(out[i].latency_ms, results[i].latency_ms);
    EXPECT_EQ(out[i].error, results[i].error);
  }
  EXPECT_EQ(out[2].s, 12u);
  EXPECT_EQ(out[2].t, 60u);
  EXPECT_EQ(out[2].distance, 0xdeadbeefULL);
  EXPECT_EQ(out[2].settled_nodes, 450u);
}

TEST(RpcWire, MalformedPayloadsAreRejectedDeterministically) {
  const std::vector<std::byte> bytes = service::encode_requests(sample_requests());

  std::vector<std::byte> trailing = bytes;
  trailing.push_back(std::byte{0});
  try {
    (void)service::decode_requests(trailing.data(), trailing.size());
    FAIL() << "trailing bytes accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rpc: wire payload has trailing bytes");
  }

  std::vector<std::byte> truncated(bytes.begin(), bytes.end() - 4);
  EXPECT_THROW((void)service::decode_requests(truncated.data(), truncated.size()),
               std::runtime_error);

  // A corrupted count prefix must not drive a huge reserve.
  std::vector<std::byte> huge_count = bytes;
  const std::uint64_t huge = ~0ull;
  std::memcpy(huge_count.data(), &huge, 8);
  try {
    (void)service::decode_requests(huge_count.data(), huge_count.size());
    FAIL() << "huge count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rpc: wire count exceeds payload");
  }

  // Unknown query kind (offset: count u64 + id u64 = byte 16).  The decoder
  // fails closed through checked_query_kind with its exact error text.
  for (const std::uint8_t raw : {std::uint8_t{5}, std::uint8_t{200}, std::uint8_t{255}}) {
    std::vector<std::byte> bad_kind = bytes;
    bad_kind[16] = std::byte{raw};
    try {
      (void)service::decode_requests(bad_kind.data(), bad_kind.size());
      FAIL() << "unknown kind accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "wire: unknown query kind " + std::to_string(raw));
    }
  }

  // The same corruption in a result payload is rejected identically (the
  // result kind byte also sits right after count u64 + id u64).
  service::QueryResult res;
  res.id = 4;
  res.kind = service::QueryKind::kPointToPoint;
  res.ok = true;
  std::vector<std::byte> result_bytes = service::encode_results({res});
  result_bytes[16] = std::byte{7};
  try {
    (void)service::decode_results(result_bytes.data(), result_bytes.size());
    FAIL() << "unknown kind accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "wire: unknown query kind 7");
  }
}

}  // namespace
