// Copyright 2026 mpqopt authors.
//
// Wire format of the session protocol, layered on the framed transport
// (net/frame_transport.h) next to the stateless task frames.
//
// The frame kind byte is split into two namespaces (see
// kSessionFrameKindBase in net/frame_transport.h): kinds below the base
// are stateless task tags (cluster/task_registry.h), kinds at or above
// it are session control frames. All three session frames reference a
// master-chosen u64 session id; the worker keys its SessionStore by that
// id, scoped to the connection the frames arrive on — a master crash or
// reconnect drops the connection and with it every replica it owned.
//
//   kSessionOpenFrame    u64 session id, u8 StatefulTaskKind, then the
//                        open request bytes. Re-opening an existing id
//                        replaces the replica (recovery replays onto a
//                        fresh connection, so this only matters for a
//                        misbehaving master).
//   kSessionStepFrame    u64 session id, then the step request bytes.
//   kSessionCloseFrame   u64 session id. Always acknowledged kOk, even
//                        for unknown ids (closing is idempotent).
//
// Replies reuse the task reply format (cluster/rpc_protocol.h): a
// compute-seconds header, then response bytes (kOk), status text
// (kTaskError — deterministic step/open failures, including the
// per-session byte cap), or status text (kSessionError — the replica is
// GONE: unknown or TTL-expired id; the master may rebuild it by
// re-open + replay).

#ifndef MPQOPT_CLUSTER_SESSION_SESSION_WIRE_H_
#define MPQOPT_CLUSTER_SESSION_SESSION_WIRE_H_

#include <cstdint>
#include <vector>

#include "cluster/session/stateful_task.h"
#include "common/serialize.h"
#include "common/status.h"
#include "net/frame_transport.h"

namespace mpqopt {

constexpr uint8_t kSessionOpenFrame = kSessionFrameKindBase + 0;
constexpr uint8_t kSessionStepFrame = kSessionFrameKindBase + 1;
constexpr uint8_t kSessionCloseFrame = kSessionFrameKindBase + 2;

/// Legacy copy-assembling builders. The RPC session layer now gathers
/// the id header and request bytes through SendFrameV instead (see
/// cluster/session/rpc_session.cc); these remain for tests and for
/// callers that genuinely want a contiguous payload. Byte-identity
/// between the two paths is pinned by tests/session_test.cc.
inline std::vector<uint8_t> BuildSessionOpenPayload(
    uint64_t session_id, StatefulTaskKind kind,
    const std::vector<uint8_t>& open_request) {
  ByteWriter writer;
  writer.WriteU64(session_id);
  writer.WriteU8(static_cast<uint8_t>(kind));
  std::vector<uint8_t> payload = writer.Release();
  payload.insert(payload.end(), open_request.begin(), open_request.end());
  return payload;
}

inline std::vector<uint8_t> BuildSessionStepPayload(
    uint64_t session_id, const std::vector<uint8_t>& request) {
  ByteWriter writer;
  writer.WriteU64(session_id);
  std::vector<uint8_t> payload = writer.Release();
  payload.insert(payload.end(), request.begin(), request.end());
  return payload;
}

/// Encoded size of the session-id prefix on open/step/close payloads.
constexpr size_t kSessionIdBytes = sizeof(uint64_t);

/// Encodes the open-frame prefix (u64 id + kind byte) into a caller-owned
/// slot, byte-identical to BuildSessionOpenPayload's first 9 bytes.
inline void EncodeSessionOpenPrefix(uint64_t session_id,
                                    StatefulTaskKind kind,
                                    uint8_t out[kSessionIdBytes + 1]) {
  EncodeU64(session_id, out);
  out[kSessionIdBytes] = static_cast<uint8_t>(kind);
}

inline std::vector<uint8_t> BuildSessionClosePayload(uint64_t session_id) {
  ByteWriter writer;
  writer.WriteU64(session_id);
  return writer.Release();
}

/// Splits a session frame payload into the leading session id and the
/// remainder (open: kind byte + open request; step: step request).
inline Status ParseSessionId(const std::vector<uint8_t>& payload,
                             uint64_t* session_id, size_t* body_offset) {
  ByteReader reader(payload);
  Status s = reader.ReadU64(session_id);
  if (!s.ok()) {
    return Status::Corruption("truncated session frame header");
  }
  *body_offset = sizeof(uint64_t);
  return Status::OK();
}

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SESSION_SESSION_WIRE_H_
