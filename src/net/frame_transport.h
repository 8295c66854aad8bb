// Copyright 2026 mpqopt authors.
//
// Framed-message TCP transport — the real-socket substrate under
// RpcBackend. Everything above the simulated NetworkModel clock in this
// repository already speaks in self-contained byte payloads; this header
// moves those payloads over actual TCP connections.
//
// Wire format of one frame:
//
//   u8  kind      application-defined tag (task kind on requests,
//                 ok/error on replies)
//   u64 length    payload byte count, little-endian
//   ..  payload   `length` bytes
//
// All calls are blocking with optional timeouts, handle partial reads and
// writes (short send()/recv(), EINTR), never raise SIGPIPE, and report
// failures as Status values: a peer that closes cleanly between frames
// yields kNotFound ("peer closed"), a disconnect in the middle of a frame
// yields kCorruption, oversized frames are rejected before allocation, and
// timeouts surface as kInternal with "timed out" in the message.

#ifndef MPQOPT_NET_FRAME_TRANSPORT_H_
#define MPQOPT_NET_FRAME_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace mpqopt {

/// Owning file-descriptor handle for a connected TCP stream.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(Socket);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();
  /// Shuts both directions down but keeps the descriptor: threads
  /// blocked on it wake (reads see end of stream, writes fail), and the
  /// fd number cannot be reused under them until Close.
  void Shutdown();

 private:
  int fd_ = -1;
};

/// One framed message.
struct Frame {
  uint8_t kind = 0;
  std::vector<uint8_t> payload;
};

/// Frames larger than this are rejected by both sender and receiver —
/// a corrupted length prefix must not become a 2^60-byte allocation.
constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 30;

/// The frame kind byte is split into two application namespaces: kinds
/// below this base are stateless task tags (cluster/task_registry.h,
/// RpcTaskKind), kinds at or above it are session-control frames of the
/// stateful-worker protocol (cluster/session/session_wire.h). The
/// transport itself never interprets the kind byte; the split only keeps
/// the two dispatch tables collision-free on one connection.
constexpr uint8_t kSessionFrameKindBase = 0x80;

/// Sends one frame, looping over partial writes. Never raises SIGPIPE; a
/// broken connection returns kInternal.
Status SendFrame(int fd, uint8_t kind, const std::vector<uint8_t>& payload);

/// A non-owning view of contiguous bytes, for gather-sends.
struct ConstSpan {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Maximum number of payload pieces one SendFrameV call accepts. The
/// header rides in the same gather list, so the whole frame fits a
/// stack-allocated iovec array and (buffers permitting) one syscall:
/// Linux's sendmsg takes at most 1024 iovecs. A batch frame gathers two
/// pieces per subtask (slot header, request bytes).
constexpr size_t kMaxSendSpans = 1023;

/// What a sender does while the peer is not taking bytes.
class SendBackpressure {
 public:
  /// Called whenever the socket's send buffer is full. Returns OK once a
  /// retry may make progress, or an error that aborts the send.
  virtual Status AwaitSendSpace(int fd) = 0;

 protected:
  ~SendBackpressure() = default;
};

/// Sends one frame whose payload is the concatenation of `parts` —
/// byte-identical on the wire to SendFrame over the concatenated bytes,
/// but with zero sender-side copies: header and all parts go out through
/// a single gathering sendmsg (resumed across partial writes). This is
/// how the master scatters without assembling per-worker buffers. With
/// `backpressure`, no sendmsg blocks: a full send buffer calls
/// backpressure->AwaitSendSpace instead, and the send resumes after it.
Status SendFrameV(int fd, uint8_t kind, const ConstSpan* parts,
                  size_t num_parts, SendBackpressure* backpressure = nullptr);

/// Receives one frame whose payload starts with a fixed-size header (e.g.
/// the RPC reply's compute-seconds prefix), splitting it off in place:
/// `header_bytes` bytes land in `header`, the rest in `*body`. Lets a
/// caller strip a prefix without the copy RecvFrame + erase would cost,
/// and reuses `body`'s capacity across frames on persistent connections.
/// A frame shorter than `header_bytes` is kCorruption. Timeout semantics
/// match RecvFrame.
Status RecvFrameSplit(int fd, uint8_t* kind, uint8_t* header,
                      size_t header_bytes, std::vector<uint8_t>* body,
                      int timeout_ms = -1);

/// Waits up to `timeout_ms` for `fd` to become readable (data pending, or
/// EOF/error — a subsequent read will not block). Returns true when
/// readable, false on timeout. Lets a serving loop wait for work in
/// bounded slices so it can notice a shutdown flag between frames.
StatusOr<bool> WaitReadable(int fd, int timeout_ms);

/// Receives one frame. `timeout_ms` < 0 blocks indefinitely; otherwise
/// it is one absolute deadline on the whole frame (header + payload) —
/// a peer trickling bytes cannot stretch it. Clean peer close before the
/// first header byte returns kNotFound; a disconnect mid-frame returns
/// kCorruption.
Status RecvFrame(int fd, Frame* frame, int timeout_ms = -1);

/// Splits "host:port" and validates the port range.
Status ParseHostPort(const std::string& endpoint, std::string* host,
                     int* port);

/// Connects to "host:port" (numeric IPv4, or "localhost") with a bound
/// connect timeout, and disables Nagle on the resulting stream.
StatusOr<Socket> DialTcp(const std::string& endpoint, int timeout_ms);

/// Listening TCP socket; Bind with port 0 picks an ephemeral port, which
/// `port()` reports.
class TcpListener {
 public:
  TcpListener() = default;
  static StatusOr<TcpListener> Bind(const std::string& host, int port);

  /// Accepts one connection. `timeout_ms` < 0 blocks indefinitely; on
  /// timeout returns kInternal with "timed out" in the message.
  StatusOr<Socket> Accept(int timeout_ms = -1);

  bool valid() const { return socket_.valid(); }
  int port() const { return port_; }
  /// The listening fd, for WaitReadable-style bounded accept loops.
  int fd() const { return socket_.fd(); }

 private:
  Socket socket_;
  int port_ = 0;
};

}  // namespace mpqopt

#endif  // MPQOPT_NET_FRAME_TRANSPORT_H_
