// Copyright 2026 mpqopt authors.
//
// The worker -> master reply wire format, shared by everything that
// speaks the RPC protocol: the worker serve loop (cluster/rpc_backend.cc)
// builds replies, and both the round path (RpcBackend) and the health
// probes (cluster/supervisor/) decode them.
//
// Reply frame, on top of the framed transport (net/frame_transport.h):
//
//   kind     RpcReplyKind (ok | task error)
//   payload  f64 compute-seconds (IEEE-754 bit pattern, little-endian),
//            then response bytes (ok) or status text (task error)
//
// The compute seconds are measured INSIDE the worker process, so the
// optimizer's modeled cluster time stays comparable with every other
// backend regardless of which worker (or which retry) produced the
// response.

#ifndef MPQOPT_CLUSTER_RPC_PROTOCOL_H_
#define MPQOPT_CLUSTER_RPC_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "net/frame_transport.h"

namespace mpqopt {

/// Reply-frame tags (the `kind` byte of frames flowing worker -> master).
/// kTaskError is DETERMINISTIC (the same request would fail anywhere, so
/// it is never retried); kSessionError means the referenced session
/// replica is GONE on this worker (unknown or TTL-expired id — see
/// cluster/session/) and the master may rebuild it by re-open + replay.
enum class RpcReplyKind : uint8_t {
  kOk = 0,
  kTaskError = 1,
  kSessionError = 2,
};

/// Bytes of the compute-seconds header that precedes every reply body.
constexpr size_t kRpcReplyHeaderBytes = sizeof(double);

/// Encodes the compute-seconds header into a caller-owned 8-byte slot.
/// The f64 crosses the wire as its IEEE-754 bit pattern in little-endian
/// byte order, like the frame length prefix — independent of either
/// peer's host endianness.
inline void EncodeRpcReplySeconds(double compute_seconds,
                                  uint8_t out[kRpcReplyHeaderBytes]) {
  uint64_t bits = 0;
  std::memcpy(&bits, &compute_seconds, sizeof(bits));
  for (size_t i = 0; i < sizeof(bits); ++i) {
    out[i] = static_cast<uint8_t>(bits >> (8 * i));
  }
}

/// Builds one reply payload: the compute-seconds header followed by
/// `size` body bytes.
inline std::vector<uint8_t> BuildRpcReplyPayload(double compute_seconds,
                                                 const uint8_t* body,
                                                 size_t size) {
  std::vector<uint8_t> payload(kRpcReplyHeaderBytes + size);
  EncodeRpcReplySeconds(compute_seconds, payload.data());
  if (size > 0) {
    std::memcpy(payload.data() + kRpcReplyHeaderBytes, body, size);
  }
  return payload;
}

/// Sends one reply frame — header and body gathered straight from the
/// caller's buffers (byte-identical to SendFrame(BuildRpcReplyPayload)
/// with zero assembly copies).
inline Status SendRpcReply(int fd, RpcReplyKind kind, double compute_seconds,
                           ConstSpan body) {
  uint8_t seconds[kRpcReplyHeaderBytes];
  EncodeRpcReplySeconds(compute_seconds, seconds);
  const ConstSpan parts[2] = {{seconds, sizeof(seconds)}, body};
  return SendFrameV(fd, static_cast<uint8_t>(kind), parts, 2);
}

/// Receives one reply frame, splitting the compute-seconds header off in
/// place: the body lands in `*body` (capacity reused across calls) with
/// no post-receive erase/copy. A reply shorter than the header is
/// kCorruption. `kind` is the raw frame kind byte — callers validate it
/// against RpcReplyKind themselves (a bad byte is a protocol error whose
/// handling is caller-specific).
inline Status RecvRpcReply(int fd, uint8_t* kind, double* compute_seconds,
                           std::vector<uint8_t>* body, int timeout_ms) {
  uint8_t header[kRpcReplyHeaderBytes];
  Status s = RecvFrameSplit(fd, kind, header, sizeof(header), body,
                            timeout_ms);
  if (!s.ok()) return s;
  uint64_t bits = 0;
  for (size_t i = 0; i < sizeof(bits); ++i) {
    bits |= static_cast<uint64_t>(header[i]) << (8 * i);
  }
  std::memcpy(compute_seconds, &bits, sizeof(*compute_seconds));
  return Status::OK();
}

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_RPC_PROTOCOL_H_
