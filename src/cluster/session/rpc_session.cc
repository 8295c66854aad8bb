// Copyright 2026 mpqopt authors.

#include "cluster/session/rpc_session.h"

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "cluster/session/session_wire.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace mpqopt {
namespace {

/// Master-process-unique session ids. Collisions between masters are
/// impossible regardless: worker-side stores are scoped per connection.
std::atomic<uint64_t> g_next_session_id{1};

/// A failure that would recur on any worker: a clean task error (the
/// step/open itself failed, e.g. the worker-side byte cap) — as opposed
/// to a connection failure (`worker_failed`) or a lost replica
/// (kNotFound), both of which re-open + replay can heal.
bool IsDeterministicFailure(const Status& status, bool worker_failed) {
  return !worker_failed && status.code() != StatusCode::kNotFound;
}

}  // namespace

StatusOr<std::unique_ptr<SessionHandle>> RpcSessionHandle::Open(
    WorkerSupervisor* supervisor, ExecutionBackend::SessionCounters* counters,
    StatefulTaskKind kind,
    const std::vector<std::vector<uint8_t>>& open_requests,
    size_t rotate_base) {
  // Fail fast on a kind this binary does not know; the worker would
  // reject it too, but without a round trip and per node.
  if (StatefulTaskForKind(kind) == nullptr) {
    return Status::InvalidArgument(
        "unregistered stateful task kind " +
        std::to_string(static_cast<int>(kind)) +
        " (see cluster/session/stateful_task.h)");
  }
  if (open_requests.empty()) {
    return Status::InvalidArgument("a session needs at least one node");
  }
  std::unique_ptr<RpcSessionHandle> handle(
      new RpcSessionHandle(supervisor, counters, kind));
  handle->nodes_.resize(open_requests.size());
  for (size_t i = 0; i < open_requests.size(); ++i) {
    Node& node = handle->nodes_[i];
    node.id = g_next_session_id.fetch_add(1, std::memory_order_relaxed);
    node.open_request = open_requests[i];
    // Deal node i onto the pool round-robin from the backend's rotating
    // base (so concurrent sessions spread); a pool smaller than the node
    // count hosts several replicas per worker under distinct ids.
    node.worker = (rotate_base + i) % supervisor->num_workers();
    // The initial open reuses the recovery machinery with an empty
    // replay log: open on the dealt worker when it is usable, handle
    // redials/backoff/migration otherwise.
    const size_t budget = RecoveryPassBudget(
        supervisor->options().max_redials, supervisor->num_workers());
    Status last = Status::OK();
    bool opened = false;
    for (size_t attempt = 0; attempt < budget; ++attempt) {
      bool final_failure = false;
      Status s = handle->RecoverNode(&node, /*prefer_current=*/attempt == 0,
                                     &final_failure);
      if (s.ok()) {
        opened = true;
        break;
      }
      last = s;
      if (final_failure) break;
    }
    if (!opened) {
      counters->failed.fetch_add(1, std::memory_order_relaxed);
      return Status::Internal("session open failed: " + last.ToString());
    }
  }
  counters->opened.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<SessionHandle>(std::move(handle));
}

RpcSessionHandle::~RpcSessionHandle() { Close(); }

StatusOr<RoundResult> RpcSessionHandle::Step(
    const std::vector<std::vector<uint8_t>>& requests) {
  MPQOPT_CHECK_EQ(requests.size(), nodes_.size());
  std::vector<const std::vector<uint8_t>*> pointers;
  pointers.reserve(requests.size());
  for (const std::vector<uint8_t>& request : requests) {
    pointers.push_back(&request);
  }
  return RunSessionRound(pointers, /*record=*/nullptr);
}

StatusOr<RoundResult> RpcSessionHandle::Broadcast(
    const std::vector<uint8_t>& payload) {
  const std::vector<const std::vector<uint8_t>*> pointers(nodes_.size(),
                                                          &payload);
  return RunSessionRound(pointers, &payload);
}

StatusOr<RoundResult> RpcSessionHandle::RunSessionRound(
    const std::vector<const std::vector<uint8_t>*>& requests,
    const std::vector<uint8_t>* record) {
  if (!failed_.ok()) return failed_;
  MPQOPT_CHECK(!closed_);
  counters_->rounds.fetch_add(1, std::memory_order_relaxed);
  const size_t m = nodes_.size();
  RoundResult result;
  result.responses.resize(m);
  result.compute_seconds.assign(m, 0.0);

  // One lane per hosting worker: a worker's nodes are stepped in order
  // on its one connection, distinct workers proceed in parallel. A node
  // may migrate to another worker mid-lane during recovery; the
  // supervisor's per-worker exchange lock keeps that safe.
  std::map<size_t, std::vector<size_t>> lanes;
  for (size_t i = 0; i < m; ++i) lanes[nodes_[i].worker].push_back(i);
  std::mutex error_mutex;
  Status round_error = Status::OK();
  obs::Span round_span("session.round");
  const obs::TraceContext lane_ctx = obs::CurrentTraceContext();
  const auto run_lane = [&](const std::vector<size_t>& node_indices) {
    obs::TraceContextScope lane_scope(lane_ctx);
    for (size_t i : node_indices) {
      Status s = StepNode(&nodes_[i], *requests[i], &result.responses[i],
                          &result.compute_seconds[i]);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (round_error.ok()) round_error = s;
        return;
      }
    }
  };

  const auto round_start = std::chrono::steady_clock::now();
  if (lanes.size() <= 1) {
    for (const auto& [worker, node_indices] : lanes) run_lane(node_indices);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(lanes.size());
    for (const auto& [worker, node_indices] : lanes) {
      pool.emplace_back(run_lane, node_indices);
    }
    for (std::thread& t : pool) t.join();
  }
  const auto round_end = std::chrono::steady_clock::now();

  if (!round_error.ok()) {
    // Unrecoverable: the session's replicas can no longer be trusted to
    // be consistent as a group. Sticky — every later call fails fast.
    failed_ = round_error;
    counters_->failed.fetch_add(1, std::memory_order_relaxed);
    return round_error;
  }
  result.wall_seconds =
      std::chrono::duration<double>(round_end - round_start).count();
  std::vector<size_t> sizes;
  sizes.reserve(m);
  for (const std::vector<uint8_t>* request : requests) {
    sizes.push_back(request->size());
  }
  AccountRound(sizes, &result);
  if (record != nullptr) replay_log_.push_back(*record);
  return result;
}

Status RpcSessionHandle::StepNode(Node* node,
                                  const std::vector<uint8_t>& request,
                                  std::vector<uint8_t>* response,
                                  double* compute_seconds) {
  const size_t budget = RecoveryPassBudget(
      supervisor_->options().max_redials, supervisor_->num_workers());
  Status last = Status::OK();
  for (size_t attempt = 0; attempt <= budget; ++attempt) {
    if (attempt > 0) {
      bool final_failure = false;
      Status recovered =
          RecoverNode(node, /*prefer_current=*/attempt == 1, &final_failure);
      if (!recovered.ok()) {
        if (final_failure) return recovered;
        last = recovered;
        continue;  // this candidate worker failed; try another
      }
      counters_->recovered.fetch_add(1, std::memory_order_relaxed);
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kSessionRecovery,
          "node %llu recovered onto worker %zu (attempt %zu)",
          static_cast<unsigned long long>(node->id), node->worker, attempt);
    }
    bool worker_failed = false;
    // Gather the id header and the request bytes into one frame — the
    // request buffer is never copied on the master side.
    uint8_t id_header[kSessionIdBytes];
    EncodeU64(node->id, id_header);
    const ConstSpan parts[2] = {{id_header, sizeof(id_header)},
                                {request.data(), request.size()}};
    Status s =
        supervisor_->ExchangeV(node->worker, kSessionStepFrame, parts, 2,
                               response, compute_seconds, &worker_failed);
    if (s.ok()) return Status::OK();
    if (IsDeterministicFailure(s, worker_failed)) return s;
    last = s;
  }
  return Status::Internal(
      "session node " + std::to_string(node->id) + " did not recover after " +
      std::to_string(budget) + " attempts; last failure: " + last.ToString());
}

Status RpcSessionHandle::RecoverNode(Node* node, bool prefer_current,
                                     bool* final_failure) {
  obs::Span recover_span("session.recover");
  *final_failure = false;
  for (;;) {
    const std::vector<size_t> usable = supervisor_->UsableWorkers();
    if (usable.empty()) {
      const int delay = supervisor_->NextRedialDelayMs();
      if (delay < 0) {
        *final_failure = true;
        return Status::Internal(
            "session lost: all workers are dead (session node " +
            std::to_string(node->id) + ")");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      continue;
    }
    size_t w = 0;
    bool chosen = false;
    if (prefer_current) {
      for (size_t candidate : usable) {
        if (candidate == node->worker) {
          w = candidate;
          chosen = true;
          break;
        }
      }
    }
    if (!chosen) {
      // Rotate over the survivors — the node migrates.
      const size_t shift =
          recover_rotor_.fetch_add(1, std::memory_order_relaxed);
      w = usable[shift % usable.size()];
    }
    return OpenNodeOn(w, node, final_failure);
  }
}

Status RpcSessionHandle::OpenNodeOn(size_t w, Node* node,
                                    bool* final_failure) {
  *final_failure = false;
  std::vector<uint8_t> response;
  double seconds = 0;
  bool worker_failed = false;
  uint8_t open_prefix[kSessionIdBytes + 1];
  EncodeSessionOpenPrefix(node->id, kind_, open_prefix);
  const ConstSpan open_parts[2] = {
      {open_prefix, sizeof(open_prefix)},
      {node->open_request.data(), node->open_request.size()}};
  Status s = supervisor_->ExchangeV(w, kSessionOpenFrame, open_parts, 2,
                                    &response, &seconds, &worker_failed);
  if (!s.ok()) {
    *final_failure = IsDeterministicFailure(s, worker_failed);
    return s;
  }
  // Replay the recorded broadcasts in order: the replica is a pure fold
  // over them, so after this the node is byte-equivalent to one that
  // never failed.
  uint8_t id_header[kSessionIdBytes];
  EncodeU64(node->id, id_header);
  for (const std::vector<uint8_t>& payload : replay_log_) {
    const ConstSpan parts[2] = {{id_header, sizeof(id_header)},
                                {payload.data(), payload.size()}};
    s = supervisor_->ExchangeV(w, kSessionStepFrame, parts, 2, &response,
                               &seconds, &worker_failed);
    if (!s.ok()) {
      *final_failure = IsDeterministicFailure(s, worker_failed);
      return s;
    }
  }
  node->worker = w;
  return Status::OK();
}

Status RpcSessionHandle::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  for (Node& node : nodes_) {
    // Best effort: a worker that is not currently healthy gets no close
    // call (no redial storms on teardown) — its store reclaims the
    // replica on disconnect or TTL anyway.
    if (supervisor_->health(node.worker) != WorkerHealth::kHealthy) continue;
    std::vector<uint8_t> response;
    double seconds = 0;
    bool worker_failed = false;
    supervisor_->Exchange(node.worker, kSessionCloseFrame,
                          BuildSessionClosePayload(node.id), &response,
                          &seconds, &worker_failed);
  }
  return Status::OK();
}

}  // namespace mpqopt
