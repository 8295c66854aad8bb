// Copyright 2026 mpqopt authors.

#include "cluster/session/local_session.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "obs/trace.h"

namespace mpqopt {

// Defined here rather than in backend.cc so the core backend translation
// unit does not depend on the stateful-task registry (which pulls in the
// optimizer entry points it registers).
StatusOr<std::unique_ptr<SessionHandle>> ExecutionBackend::OpenSession(
    StatefulTaskKind kind,
    const std::vector<std::vector<uint8_t>>& open_requests) {
  return LocalSessionHandle::Open(this, &session_counters_, kind,
                                  open_requests);
}

StatusOr<std::unique_ptr<SessionHandle>> LocalSessionHandle::Open(
    ExecutionBackend* backend, ExecutionBackend::SessionCounters* counters,
    StatefulTaskKind kind,
    const std::vector<std::vector<uint8_t>>& open_requests) {
  const StatefulTaskVtable* vtable = StatefulTaskForKind(kind);
  if (vtable == nullptr) {
    return Status::InvalidArgument(
        "unregistered stateful task kind " +
        std::to_string(static_cast<int>(kind)) +
        " (see cluster/session/stateful_task.h)");
  }
  if (open_requests.empty()) {
    return Status::InvalidArgument("a session needs at least one node");
  }
  std::unique_ptr<LocalSessionHandle> handle(
      new LocalSessionHandle(backend, counters, vtable));
  handle->states_.reserve(open_requests.size());
  for (const std::vector<uint8_t>& request : open_requests) {
    StatusOr<std::unique_ptr<SessionState>> state = vtable->open(request);
    if (!state.ok()) {
      counters->failed.fetch_add(1, std::memory_order_relaxed);
      return state.status();
    }
    handle->states_.push_back(std::move(state).value());
  }
  counters->opened.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<SessionHandle>(std::move(handle));
}

LocalSessionHandle::~LocalSessionHandle() { Close(); }

Status LocalSessionHandle::Fail(const Status& error) {
  if (failed_.ok()) {
    failed_ = error;
    counters_->failed.fetch_add(1, std::memory_order_relaxed);
  }
  return failed_;
}

StatusOr<RoundResult> LocalSessionHandle::Step(
    const std::vector<std::vector<uint8_t>>& requests) {
  MPQOPT_CHECK_EQ(requests.size(), states_.size());
  MPQOPT_CHECK(!closed_);
  if (!failed_.ok()) return failed_;
  counters_->rounds.fetch_add(1, std::memory_order_relaxed);
  // Scatter steps are pure reads of the replicas, so they can ride the
  // backend's own round machinery.
  std::vector<WorkerTask> tasks;
  tasks.reserve(states_.size());
  for (std::unique_ptr<SessionState>& state : states_) {
    SessionState* raw = state.get();
    const StatefulTaskVtable* vtable = vtable_;
    tasks.push_back(
        [raw, vtable](const std::vector<uint8_t>& request) {
          return vtable->step(raw, request);
        });
  }
  StatusOr<RoundResult> round = backend_->RunRound(tasks, requests);
  if (!round.ok()) return Fail(round.status());
  return round;
}

StatusOr<RoundResult> LocalSessionHandle::Broadcast(
    const std::vector<uint8_t>& payload) {
  MPQOPT_CHECK(!closed_);
  if (!failed_.ok()) return failed_;
  counters_->rounds.fetch_add(1, std::memory_order_relaxed);
  // Every node gets the same payload (for SMA, a whole level's memo
  // entries), so the broadcast applies it to each replica in place rather
  // than copying it once per node into a round's request vector.
  const size_t m = states_.size();
  RoundResult result;
  result.responses.resize(m);
  result.compute_seconds.assign(m, 0.0);
  obs::Span round_span("session.round");
  const auto round_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < m; ++i) {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::vector<uint8_t>> response =
        vtable_->step(states_[i].get(), payload);
    const auto end = std::chrono::steady_clock::now();
    if (!response.ok()) return Fail(response.status());
    result.responses[i] = std::move(response).value();
    result.compute_seconds[i] =
        std::chrono::duration<double>(end - start).count();
  }
  const auto round_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(round_end - round_start).count();
  AccountRound(std::vector<size_t>(m, payload.size()), &result);
  return result;
}

void LocalSessionHandle::Close() {
  if (closed_) return;
  closed_ = true;
  states_.clear();
}

}  // namespace mpqopt
