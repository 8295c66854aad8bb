// Copyright 2026 mpqopt authors.

#include "cluster/session/session_store.h"

#include <string>
#include <utility>

#include "cluster/session/session_wire.h"

namespace mpqopt {
namespace {

SessionReply ErrorReply(RpcReplyKind kind, const std::string& message) {
  SessionReply reply;
  reply.kind = kind;
  reply.body.assign(message.begin(), message.end());
  return reply;
}

}  // namespace

SessionReply SessionStore::Handle(uint8_t frame_kind,
                                  const std::vector<uint8_t>& payload) {
  SweepExpired();
  switch (frame_kind) {
    case kSessionOpenFrame:
      return HandleOpen(payload);
    case kSessionStepFrame:
      return HandleStep(payload);
    case kSessionCloseFrame:
      return HandleClose(payload);
    default:
      return ErrorReply(RpcReplyKind::kTaskError,
                        "unknown session frame kind " +
                            std::to_string(frame_kind) +
                            " (worker/master version mismatch?)");
  }
}

void SessionStore::SweepExpired() {
  if (options_.ttl_ms <= 0 || sessions_.empty()) return;
  const Clock::time_point cutoff =
      Clock::now() - std::chrono::milliseconds(options_.ttl_ms);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.last_used < cutoff) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

SessionReply SessionStore::HandleOpen(const std::vector<uint8_t>& payload) {
  uint64_t session_id = 0;
  size_t offset = 0;
  Status s = ParseSessionId(payload, &session_id, &offset);
  if (!s.ok()) return ErrorReply(RpcReplyKind::kTaskError, s.ToString());
  if (payload.size() < offset + 1) {
    return ErrorReply(RpcReplyKind::kTaskError,
                      "truncated session open payload");
  }
  const StatefulTaskKind kind =
      static_cast<StatefulTaskKind>(payload[offset]);
  const StatefulTaskVtable* vtable = StatefulTaskForKind(kind);
  if (vtable == nullptr) {
    return ErrorReply(RpcReplyKind::kTaskError,
                      "unregistered stateful task kind " +
                          std::to_string(payload[offset]) +
                          " (worker/master version mismatch?)");
  }
  const std::vector<uint8_t> open_request(payload.begin() + offset + 1,
                                          payload.end());
  // Re-opening an id replaces the replica: recovery normally lands on a
  // fresh connection, so a same-connection duplicate is a master bug —
  // but replacing keeps open idempotent, which replay relies on.
  sessions_.erase(session_id);
  const auto start = Clock::now();
  StatusOr<std::unique_ptr<SessionState>> state = vtable->open(open_request);
  const auto end = Clock::now();
  SessionReply reply;
  reply.compute_seconds =
      std::chrono::duration<double>(end - start).count();
  if (!state.ok()) {
    return ErrorReply(RpcReplyKind::kTaskError,
                      "session open failed: " + state.status().ToString());
  }
  const size_t bytes = state.value()->ApproxBytes();
  if (bytes > options_.max_session_bytes) {
    return ErrorReply(
        RpcReplyKind::kTaskError,
        "session state of " + std::to_string(bytes) +
            " bytes exceeds the worker's per-session byte cap (" +
            std::to_string(options_.max_session_bytes) + ")");
  }
  Entry entry;
  entry.state = std::move(state).value();
  entry.vtable = vtable;
  entry.last_used = Clock::now();
  sessions_.emplace(session_id, std::move(entry));
  return reply;
}

SessionReply SessionStore::HandleStep(const std::vector<uint8_t>& payload) {
  uint64_t session_id = 0;
  size_t offset = 0;
  Status s = ParseSessionId(payload, &session_id, &offset);
  if (!s.ok()) return ErrorReply(RpcReplyKind::kTaskError, s.ToString());
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    // The replica is gone — never opened on this connection, or TTL-
    // reclaimed. Recoverable for the master (re-open + replay), hence
    // kSessionError, not a task error.
    return ErrorReply(RpcReplyKind::kSessionError,
                      "unknown or expired session id " +
                          std::to_string(session_id));
  }
  const std::vector<uint8_t> request(payload.begin() + offset,
                                     payload.end());
  const auto start = Clock::now();
  StatusOr<std::vector<uint8_t>> response =
      it->second.vtable->step(it->second.state.get(), request);
  const auto end = Clock::now();
  SessionReply reply;
  reply.compute_seconds =
      std::chrono::duration<double>(end - start).count();
  if (!response.ok()) {
    return ErrorReply(RpcReplyKind::kTaskError,
                      response.status().ToString());
  }
  const size_t bytes = it->second.state->ApproxBytes();
  if (bytes > options_.max_session_bytes) {
    // Drop the runaway replica NOW — the cap exists to protect worker
    // memory, not to advise. Deterministic: a replay of the same
    // transitions would exceed the cap again, so this is a task error.
    sessions_.erase(it);
    return ErrorReply(
        RpcReplyKind::kTaskError,
        "session state grew to " + std::to_string(bytes) +
            " bytes, exceeding the worker's per-session byte cap (" +
            std::to_string(options_.max_session_bytes) + ")");
  }
  it->second.last_used = Clock::now();
  reply.body = std::move(response).value();
  return reply;
}

SessionReply SessionStore::HandleClose(const std::vector<uint8_t>& payload) {
  uint64_t session_id = 0;
  size_t offset = 0;
  Status s = ParseSessionId(payload, &session_id, &offset);
  if (!s.ok()) return ErrorReply(RpcReplyKind::kTaskError, s.ToString());
  sessions_.erase(session_id);
  return SessionReply();  // closing an unknown id is fine (idempotent)
}

}  // namespace mpqopt
