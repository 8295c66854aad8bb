// Copyright 2026 mpqopt authors.
//
// Unit tests of the framed-message TCP transport under RpcBackend:
// framing round-trips, oversized-frame rejection, peer disconnects in
// every phase of a frame, bounded (non-hanging) connect/accept/recv
// waits, and gather sends that hand a full send buffer to a
// backpressure hook instead of blocking.

#include "net/frame_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

namespace mpqopt {
namespace {

/// A connected loopback (client, server) socket pair built from the real
/// listener/dial path.
struct TcpPair {
  Socket client;
  Socket server;
};

TcpPair MakeTcpPair() {
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  StatusOr<Socket> client = DialTcp(
      "127.0.0.1:" + std::to_string(listener.value().port()), 2000);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  StatusOr<Socket> server = listener.value().Accept(2000);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  TcpPair pair;
  pair.client = std::move(client).value();
  pair.server = std::move(server).value();
  return pair;
}

TEST(FrameTransportTest, FramingRoundTrip) {
  TcpPair pair = MakeTcpPair();
  std::vector<uint8_t> payload(1 << 16);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(SendFrame(pair.client.fd(), 42, payload).ok());
  Frame received;
  ASSERT_TRUE(RecvFrame(pair.server.fd(), &received).ok());
  EXPECT_EQ(received.kind, 42);
  EXPECT_EQ(received.payload, payload);

  // And back the other way, with an empty payload.
  ASSERT_TRUE(SendFrame(pair.server.fd(), 7, {}).ok());
  ASSERT_TRUE(RecvFrame(pair.client.fd(), &received).ok());
  EXPECT_EQ(received.kind, 7);
  EXPECT_TRUE(received.payload.empty());
}

TEST(FrameTransportTest, ManyFramesInOrderOnOneStream) {
  TcpPair pair = MakeTcpPair();
  for (uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(SendFrame(pair.client.fd(), i, {i, i, i}).ok());
  }
  for (uint8_t i = 0; i < 50; ++i) {
    Frame frame;
    ASSERT_TRUE(RecvFrame(pair.server.fd(), &frame).ok());
    EXPECT_EQ(frame.kind, i);
    EXPECT_EQ(frame.payload, (std::vector<uint8_t>{i, i, i}));
  }
}

TEST(FrameTransportTest, OversizedFrameIsRejectedByReceiver) {
  TcpPair pair = MakeTcpPair();
  // Hand-craft a header whose length prefix exceeds the limit; the
  // receiver must reject it from the header alone, before any allocation.
  uint8_t header[9];
  header[0] = 1;
  const uint64_t huge = kMaxFramePayloadBytes + 1;
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  ASSERT_EQ(::send(pair.client.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  Frame frame;
  const Status s = RecvFrame(pair.server.fd(), &frame);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("frame size limit"), std::string::npos);
}

TEST(FrameTransportTest, SendToClosedPeerFailsWithoutSigpipe) {
  TcpPair pair = MakeTcpPair();
  pair.server.Close();
  // Once the reset propagates, writes must fail with a Status instead of
  // killing the process with SIGPIPE. The first send can still succeed
  // into the socket buffer, so push until the error surfaces.
  const std::vector<uint8_t> payload(1 << 20, 0xab);
  Status s = Status::OK();
  for (int attempt = 0; attempt < 8 && s.ok(); ++attempt) {
    s = SendFrame(pair.client.fd(), 1, payload);
  }
  EXPECT_FALSE(s.ok());
}

TEST(FrameTransportTest, CleanPeerCloseBetweenFramesIsNotFound) {
  TcpPair pair = MakeTcpPair();
  pair.client.Close();
  Frame frame;
  const Status s = RecvFrame(pair.server.fd(), &frame);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("peer closed"), std::string::npos);
}

TEST(FrameTransportTest, PeerDisconnectMidHeaderIsCorruption) {
  TcpPair pair = MakeTcpPair();
  const uint8_t partial_header[3] = {1, 2, 3};
  ASSERT_EQ(::send(pair.client.fd(), partial_header, sizeof(partial_header), 0),
            static_cast<ssize_t>(sizeof(partial_header)));
  pair.client.Close();
  Frame frame;
  const Status s = RecvFrame(pair.server.fd(), &frame);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("mid-frame"), std::string::npos);
}

TEST(FrameTransportTest, PeerDisconnectMidPayloadIsCorruption) {
  TcpPair pair = MakeTcpPair();
  // A valid header promising 100 payload bytes, but only 10 arrive.
  uint8_t header[9] = {0};
  header[0] = 5;
  header[1] = 100;
  ASSERT_EQ(::send(pair.client.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  const uint8_t some[10] = {0};
  ASSERT_EQ(::send(pair.client.fd(), some, sizeof(some), 0),
            static_cast<ssize_t>(sizeof(some)));
  pair.client.Close();
  Frame frame;
  const Status s = RecvFrame(pair.server.fd(), &frame);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("mid-frame"), std::string::npos);
}

TEST(FrameTransportTest, RecvDeadlineFiresMidHeader) {
  // The peer sends PART of a header and then stalls: the deadline is
  // absolute over the whole frame, so trickled bytes must not stretch
  // it.
  TcpPair pair = MakeTcpPair();
  const uint8_t partial_header[4] = {7, 1, 2, 3};
  ASSERT_EQ(::send(pair.client.fd(), partial_header, sizeof(partial_header), 0),
            static_cast<ssize_t>(sizeof(partial_header)));
  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  const Status s = RecvFrame(pair.server.fd(), &frame, /*timeout_ms=*/150);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("timed out"), std::string::npos);
  EXPECT_GE(elapsed, 0.1);
  EXPECT_LT(elapsed, 5.0);
}

TEST(FrameTransportTest, RecvDeadlineFiresMidPayload) {
  // A complete header promising 100 payload bytes, 10 of which arrive;
  // the receiver must give up at the deadline, not wait for the rest.
  TcpPair pair = MakeTcpPair();
  uint8_t header[9] = {0};
  header[0] = 5;
  header[1] = 100;
  ASSERT_EQ(::send(pair.client.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  const uint8_t some[10] = {0};
  ASSERT_EQ(::send(pair.client.fd(), some, sizeof(some), 0),
            static_cast<ssize_t>(sizeof(some)));
  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  const Status s = RecvFrame(pair.server.fd(), &frame, /*timeout_ms=*/150);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("timed out"), std::string::npos);
  EXPECT_LT(elapsed, 5.0);
}

TEST(FrameTransportTest, OversizedHeaderRejectionLeavesTheConnectionUsable) {
  // An oversized length prefix is rejected from the header alone, after
  // exactly the 9 header bytes were consumed — so when the sender never
  // follows up with the bogus payload, the stream is not poisoned and
  // the next valid frame still parses.
  TcpPair pair = MakeTcpPair();
  uint8_t header[9];
  header[0] = 1;
  const uint64_t huge = kMaxFramePayloadBytes + 1;
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  ASSERT_EQ(::send(pair.client.fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  Frame frame;
  const Status rejected = RecvFrame(pair.server.fd(), &frame);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kCorruption);

  ASSERT_TRUE(SendFrame(pair.client.fd(), 8, {1, 2, 3}).ok());
  ASSERT_TRUE(RecvFrame(pair.server.fd(), &frame).ok());
  EXPECT_EQ(frame.kind, 8);
  EXPECT_EQ(frame.payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(FrameTransportTest, WaitReadableReportsDataAndTimeout) {
  TcpPair pair = MakeTcpPair();
  StatusOr<bool> idle = WaitReadable(pair.server.fd(), 50);
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.value());
  ASSERT_TRUE(SendFrame(pair.client.fd(), 1, {42}).ok());
  StatusOr<bool> ready = WaitReadable(pair.server.fd(), 1000);
  ASSERT_TRUE(ready.ok());
  EXPECT_TRUE(ready.value());
  // EOF also counts as readable: a blocked server must wake up to learn
  // the peer is gone.
  Frame frame;
  ASSERT_TRUE(RecvFrame(pair.server.fd(), &frame).ok());
  pair.client.Close();
  StatusOr<bool> eof = WaitReadable(pair.server.fd(), 1000);
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof.value());
}

TEST(FrameTransportTest, RecvTimesOutWhenPeerIsSilent) {
  TcpPair pair = MakeTcpPair();
  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  const Status s = RecvFrame(pair.server.fd(), &frame, /*timeout_ms=*/100);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("timed out"), std::string::npos);
  EXPECT_LT(elapsed, 5.0);
}

TEST(FrameTransportTest, AcceptTimesOutWithNoClient) {
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const StatusOr<Socket> accepted = listener.value().Accept(/*timeout_ms=*/100);
  ASSERT_FALSE(accepted.ok());
  EXPECT_NE(accepted.status().message().find("timed out"), std::string::npos);
}

TEST(FrameTransportTest, ConnectToDeadEndpointFailsBounded) {
  // A port nobody listens on: bind an ephemeral port, note it, release it.
  int dead_port = 0;
  {
    StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port();
  }
  const auto start = std::chrono::steady_clock::now();
  const StatusOr<Socket> socket =
      DialTcp("127.0.0.1:" + std::to_string(dead_port), /*timeout_ms=*/500);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(socket.ok());
  EXPECT_LT(elapsed, 5.0);
}

TEST(FrameTransportTest, ConnectTimeoutIsBounded) {
  // Provoke a half-open connect deterministically: a listener with
  // backlog 1 that never accepts. Once its accept queue is full the
  // kernel drops further SYNs, so the dial blocks — and must come back
  // within the timeout, not hang. Each attempt is also individually
  // bounded, whatever the environment does with the handshake.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd,
                          reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  bool saw_timeout = false;
  std::vector<Socket> held;  // keep queued connections alive
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 16 && !saw_timeout; ++i) {
    StatusOr<Socket> socket = DialTcp(endpoint, /*timeout_ms=*/250);
    if (socket.ok()) {
      held.push_back(std::move(socket).value());
    } else {
      saw_timeout =
          socket.status().message().find("timed out") != std::string::npos;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ::close(listen_fd);
  // 16 dials at <= 250 ms each: whether they queue or time out, the
  // bounded-connect contract holds iff we get here promptly.
  EXPECT_LT(elapsed, 16 * 0.25 + 5.0);
  if (!saw_timeout) {
    GTEST_SKIP() << "environment completes handshakes past a full backlog "
                    "(all 16 dials connected); timeout path not provokable "
                    "here";
  }
}

TEST(FrameTransportTest, GatherSendMatchesSingleBufferSend) {
  // A frame assembled from spans must be byte-identical on the wire to
  // the same payload sent through SendFrame — the receiver cannot tell
  // which path produced it.
  TcpPair pair = MakeTcpPair();
  const std::vector<uint8_t> a = {1, 2, 3};
  const std::vector<uint8_t> b = {};  // empty parts are legal
  const std::vector<uint8_t> c = {4, 5, 6, 7, 8};
  const ConstSpan parts[3] = {{a.data(), a.size()},
                              {b.data(), b.size()},
                              {c.data(), c.size()}};
  ASSERT_TRUE(SendFrameV(pair.client.fd(), 9, parts, 3).ok());

  std::vector<uint8_t> concat = a;
  concat.insert(concat.end(), c.begin(), c.end());
  ASSERT_TRUE(SendFrame(pair.client.fd(), 9, concat).ok());

  Frame from_spans;
  Frame from_buffer;
  ASSERT_TRUE(RecvFrame(pair.server.fd(), &from_spans).ok());
  ASSERT_TRUE(RecvFrame(pair.server.fd(), &from_buffer).ok());
  EXPECT_EQ(from_spans.kind, from_buffer.kind);
  EXPECT_EQ(from_spans.payload, from_buffer.payload);
}

TEST(FrameTransportTest, GatherSendAllEmptyPartsIsAnEmptyFrame) {
  TcpPair pair = MakeTcpPair();
  const ConstSpan parts[2] = {{nullptr, 0}, {nullptr, 0}};
  ASSERT_TRUE(SendFrameV(pair.client.fd(), 3, parts, 2).ok());
  Frame frame;
  ASSERT_TRUE(RecvFrame(pair.server.fd(), &frame).ok());
  EXPECT_EQ(frame.kind, 3);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTransportTest, GatherSendRejectsTooManyParts) {
  TcpPair pair = MakeTcpPair();
  const uint8_t byte = 0;
  std::vector<ConstSpan> parts(kMaxSendSpans + 1, ConstSpan{&byte, 1});
  const Status s =
      SendFrameV(pair.client.fd(), 1, parts.data(), parts.size());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FrameTransportTest, GatherSendSurvivesPartialWrites) {
  // Shrink the send buffer so a multi-megabyte gather send cannot
  // complete in one sendmsg call; the sender must resume mid-iovec
  // (adjusting base/len of the partially-written part) while a slow
  // reader drains. This is the partial-write path the RPC reply relies
  // on for large plan sets.
  TcpPair pair = MakeTcpPair();
  const int small = 8 * 1024;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  std::vector<uint8_t> head(8);
  for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<uint8_t>(i);
  std::vector<uint8_t> body(3 << 20);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  const ConstSpan parts[2] = {{head.data(), head.size()},
                              {body.data(), body.size()}};

  Frame frame;
  Status recv_status = Status::OK();
  std::thread reader([&] {
    // Trickle-read so the writer repeatedly fills the tiny buffer.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    recv_status = RecvFrame(pair.server.fd(), &frame, /*timeout_ms=*/20000);
  });
  const Status sent = SendFrameV(pair.client.fd(), 11, parts, 2);
  reader.join();
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(recv_status.ok()) << recv_status.ToString();
  EXPECT_EQ(frame.kind, 11);
  ASSERT_EQ(frame.payload.size(), head.size() + body.size());
  EXPECT_EQ(std::memcmp(frame.payload.data(), head.data(), head.size()), 0);
  EXPECT_EQ(std::memcmp(frame.payload.data() + head.size(), body.data(),
                        body.size()),
            0);
}

TEST(FrameTransportTest, GatherSendWithBackpressureNeverBlocks) {
  // With a backpressure hook, a full send buffer calls the hook instead
  // of blocking inside sendmsg: the peer starts reading only once the
  // hook has run, and the send then resumes where it stopped.
  struct SignalOnFull : SendBackpressure {
    Status AwaitSendSpace(int fd) override {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls;
      }
      cv.notify_all();
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      ::poll(&pfd, 1, 5000);
      return Status::OK();
    }
    std::mutex mutex;
    std::condition_variable cv;
    int calls = 0;  // guarded by `mutex`
  } hook;
  TcpPair pair = MakeTcpPair();
  const int small = 8 * 1024;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  std::vector<uint8_t> body(3 << 20);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  const ConstSpan part{body.data(), body.size()};
  Frame frame;
  Status recv_status = Status::OK();
  bool hook_ran_first = false;
  std::thread reader([&] {
    {
      std::unique_lock<std::mutex> lock(hook.mutex);
      hook_ran_first = hook.cv.wait_for(lock, std::chrono::seconds(10),
                                        [&] { return hook.calls > 0; });
    }
    recv_status = RecvFrame(pair.server.fd(), &frame, /*timeout_ms=*/20000);
  });
  const Status sent = SendFrameV(pair.client.fd(), 11, &part, 1, &hook);
  reader.join();
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_TRUE(hook_ran_first);
  ASSERT_TRUE(recv_status.ok()) << recv_status.ToString();
  EXPECT_EQ(frame.kind, 11);
  EXPECT_EQ(frame.payload, body);
}

TEST(FrameTransportTest, BackpressureErrorAbortsTheSend) {
  struct Refuse : SendBackpressure {
    Status AwaitSendSpace(int /*fd*/) override {
      ++calls;
      return Status::Internal("refused");
    }
    int calls = 0;
  } refuse;
  // Nobody reads the peer, so the send buffer fills long before 3 MiB.
  TcpPair pair = MakeTcpPair();
  const int small = 8 * 1024;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  std::vector<uint8_t> body(3 << 20);
  const ConstSpan part{body.data(), body.size()};
  const Status sent = SendFrameV(pair.client.fd(), 1, &part, 1, &refuse);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.message(), "refused");
  EXPECT_EQ(refuse.calls, 1);
}

TEST(FrameTransportTest, RecvFrameSplitSeparatesHeaderFromBody) {
  TcpPair pair = MakeTcpPair();
  const std::vector<uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3};
  ASSERT_TRUE(SendFrame(pair.client.fd(), 21, payload).ok());
  uint8_t kind = 0;
  uint8_t header[4];
  std::vector<uint8_t> body;
  ASSERT_TRUE(
      RecvFrameSplit(pair.server.fd(), &kind, header, sizeof(header), &body)
          .ok());
  EXPECT_EQ(kind, 21);
  EXPECT_EQ(std::memcmp(header, payload.data(), sizeof(header)), 0);
  EXPECT_EQ(body, (std::vector<uint8_t>{1, 2, 3}));

  // The body buffer is reused across frames: same capacity, new contents.
  body.reserve(1024);
  const uint8_t* data_before = body.data();
  const size_t cap_before = body.capacity();
  ASSERT_TRUE(SendFrame(pair.client.fd(), 22, {9, 9, 9, 9, 5}).ok());
  ASSERT_TRUE(
      RecvFrameSplit(pair.server.fd(), &kind, header, sizeof(header), &body)
          .ok());
  EXPECT_EQ(kind, 22);
  EXPECT_EQ(body, (std::vector<uint8_t>{5}));
  EXPECT_EQ(body.data(), data_before);
  EXPECT_EQ(body.capacity(), cap_before);
}

TEST(FrameTransportTest, RecvFrameSplitRejectsFrameShorterThanHeader) {
  TcpPair pair = MakeTcpPair();
  ASSERT_TRUE(SendFrame(pair.client.fd(), 1, {1, 2}).ok());
  uint8_t kind = 0;
  uint8_t header[8];
  std::vector<uint8_t> body;
  const Status s =
      RecvFrameSplit(pair.server.fd(), &kind, header, sizeof(header), &body);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(FrameTransportTest, ParseHostPort) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(ParseHostPort("127.0.0.1:7001", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7001);
  EXPECT_FALSE(ParseHostPort("127.0.0.1", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort(":7001", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:notaport", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:99999", &host, &port).ok());
}

TEST(FrameTransportTest, DialRejectsMalformedEndpoints) {
  EXPECT_FALSE(DialTcp("nonsense", 100).ok());
  EXPECT_FALSE(DialTcp("not.an.ip.addr:80", 100).ok());
}

}  // namespace
}  // namespace mpqopt
