// Copyright 2026 mpqopt authors.

#include "cluster/supervisor/worker_supervisor.h"

#include <algorithm>

#include "cluster/rpc_protocol.h"
#include "cluster/task_registry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace mpqopt {

namespace {

using Clock = std::chrono::steady_clock;

int MillisUntil(Clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<int64_t>(remaining.count(), 0));
}

}  // namespace

int WorkerSupervisor::BackoffDelayMs(const SupervisorOptions& options,
                                     int failed_redials) {
  if (failed_redials <= 0) return 0;  // first redial of an episode: now
  const int initial = std::max(options.backoff_initial_ms, 0);
  const int cap = std::max(options.backoff_max_ms, initial);
  // Shift capped well below the int range so the doubling cannot wrap.
  const int doublings = std::min(failed_redials - 1, 20);
  const int64_t delay = static_cast<int64_t>(initial) << doublings;
  return static_cast<int>(std::min<int64_t>(delay, cap));
}

StatusOr<std::unique_ptr<WorkerSupervisor>> WorkerSupervisor::Connect(
    const std::vector<std::string>& endpoints, SupervisorOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "rpc backend needs at least one worker endpoint");
  }
  std::unique_ptr<WorkerSupervisor> supervisor(
      new WorkerSupervisor(options));
  for (const std::string& endpoint : endpoints) {
    StatusOr<Socket> socket = supervisor->EstablishConnection(endpoint);
    if (!socket.ok()) {
      return Status::Internal("cannot connect to rpc worker " + endpoint +
                              ": " + socket.status().ToString());
    }
    auto worker = std::make_unique<Worker>();
    worker->endpoint = endpoint;
    worker->socket = std::move(socket).value();
    supervisor->workers_.push_back(std::move(worker));
  }
  return supervisor;
}

StatusOr<Socket> WorkerSupervisor::EstablishConnection(
    const std::string& endpoint) const {
  StatusOr<Socket> socket = DialTcp(endpoint, options_.connect_timeout_ms);
  if (!socket.ok()) return socket.status();
  // Ping-verify before trusting the connection: an accepting listener is
  // not yet a serving worker (the process may be wedged, or something
  // else entirely may own the port after a restart).
  const uint64_t nonce =
      ping_nonce_.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL +
      0x7f4a7c15u;
  std::vector<uint8_t> probe(sizeof(nonce));
  for (size_t i = 0; i < sizeof(nonce); ++i) {
    probe[i] = static_cast<uint8_t>(nonce >> (8 * i));
  }
  Status s = SendFrame(socket.value().fd(),
                       static_cast<uint8_t>(RpcTaskKind::kPingTask), probe);
  if (!s.ok()) return Status::Internal("ping send failed: " + s.ToString());
  uint8_t reply_kind = 0;
  double seconds = 0;
  std::vector<uint8_t> echo;
  s = RecvRpcReply(socket.value().fd(), &reply_kind, &seconds, &echo,
                   options_.ping_timeout_ms);
  if (!s.ok()) return Status::Internal("ping reply failed: " + s.ToString());
  if (reply_kind != static_cast<uint8_t>(RpcReplyKind::kOk) || echo != probe) {
    return Status::Internal("ping reply mismatch (not an mpqopt worker, or "
                            "a worker/master version mismatch)");
  }
  return socket;
}

WorkerHealth WorkerSupervisor::HealthOf(const Worker& worker) const {
  std::lock_guard<std::mutex> state(worker.state_mutex);
  return worker.health;
}

void WorkerSupervisor::MarkFailed(Worker* worker, const Status& error) {
  worker->socket.Close();  // io_mutex held by the caller
  std::lock_guard<std::mutex> state(worker->state_mutex);
  ++worker->io_failures;
  worker->last_error = error.ToString();
  if (worker->health == WorkerHealth::kDead) return;
  if (options_.max_redials <= 0) {
    // No redial budget: first connection failure is final.
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState, "%s %s -> dead: %s",
        worker->endpoint.c_str(), WorkerHealthName(worker->health),
        error.ToString().c_str());
    worker->health = WorkerHealth::kDead;
    return;
  }
  if (worker->health == WorkerHealth::kHealthy) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState, "%s healthy -> suspect: %s",
        worker->endpoint.c_str(), error.ToString().c_str());
    worker->health = WorkerHealth::kSuspect;
    worker->episode_redial_failures = 0;
    worker->next_redial_at = Clock::now();  // first redial: immediately
  }
}

bool WorkerSupervisor::TryRedial(Worker* worker) {
  {
    // Re-check under the state lock: a concurrent pass holding io_mutex
    // before us may have already redialed (HEALTHY), burned the budget
    // (DEAD), or pushed the backoff window out.
    std::lock_guard<std::mutex> state(worker->state_mutex);
    if (worker->health == WorkerHealth::kHealthy) return true;
    if (worker->health == WorkerHealth::kDead) return false;
    if (Clock::now() < worker->next_redial_at) return false;
  }
  reconnect_attempts_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<Socket> socket = EstablishConnection(worker->endpoint);
  if (socket.ok()) {
    worker->socket = std::move(socket).value();
    std::lock_guard<std::mutex> state(worker->state_mutex);
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState, "%s %s -> healthy (redial ok)",
        worker->endpoint.c_str(), WorkerHealthName(worker->health));
    worker->health = WorkerHealth::kHealthy;
    worker->episode_redial_failures = 0;
    ++worker->reconnects;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::lock_guard<std::mutex> state(worker->state_mutex);
  ++worker->redial_failures;
  ++worker->episode_redial_failures;
  worker->last_error = socket.status().ToString();
  if (worker->episode_redial_failures >= options_.max_redials) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState,
        "%s suspect -> dead (redial budget exhausted): %s",
        worker->endpoint.c_str(), socket.status().ToString().c_str());
    worker->health = WorkerHealth::kDead;
  } else {
    worker->next_redial_at =
        Clock::now() + std::chrono::milliseconds(BackoffDelayMs(
                           options_, worker->episode_redial_failures));
  }
  return false;
}

Status WorkerSupervisor::Exchange(size_t w, uint8_t task_kind,
                                  const std::vector<uint8_t>& request,
                                  std::vector<uint8_t>* response,
                                  double* compute_seconds,
                                  bool* worker_failed) {
  const ConstSpan part{request.data(), request.size()};
  return ExchangeV(w, task_kind, &part, 1, response, compute_seconds,
                   worker_failed);
}

Status WorkerSupervisor::ExchangeV(size_t w, uint8_t task_kind,
                                   const ConstSpan* parts, size_t num_parts,
                                   std::vector<uint8_t>* response,
                                   double* compute_seconds,
                                   bool* worker_failed) {
  // Covers the whole exchange: the io_mutex wait (connection contention
  // is visible in the trace) plus the send and the blocking receive.
  obs::Span exchange_span("rpc.exchange");
  const std::unique_lock<std::mutex> io = LockConnection(w);
  const Status s = SendLocked(w, task_kind, parts, num_parts, worker_failed);
  if (!s.ok()) return s;
  return ReceiveLocked(w, response, compute_seconds, worker_failed);
}

std::unique_lock<std::mutex> WorkerSupervisor::LockConnection(size_t w) {
  MPQOPT_CHECK_LT(w, workers_.size());
  return std::unique_lock<std::mutex>(workers_[w]->io_mutex);
}

Status WorkerSupervisor::SendLocked(size_t w, uint8_t task_kind,
                                    const ConstSpan* parts, size_t num_parts,
                                    bool* worker_failed) {
  Worker* worker = workers_[w].get();  // checked by LockConnection
  const WorkerHealth health = HealthOf(*worker);
  if (health != WorkerHealth::kHealthy) {
    // A concurrent round failed this worker after the scatter chose it.
    *worker_failed = true;
    return Status::Internal("rpc worker " + worker->endpoint + " is " +
                            WorkerHealthName(health));
  }
  Status s = SendFrameV(worker->socket.fd(), task_kind, parts, num_parts);
  if (!s.ok()) {
    s = Status::Internal("rpc worker " + worker->endpoint +
                         ": request send failed: " + s.ToString());
    MarkFailed(worker, s);
    *worker_failed = true;
    return s;
  }
  return Status::OK();
}

Status WorkerSupervisor::ReceiveLocked(size_t w,
                                       std::vector<uint8_t>* response,
                                       double* compute_seconds,
                                       bool* worker_failed) {
  Worker* worker = workers_[w].get();
  // The reply body lands straight in the caller's buffer (header split
  // off by the transport); on error replies it holds the status text.
  uint8_t reply_kind = 0;
  double seconds = 0;
  Status s = RecvRpcReply(worker->socket.fd(), &reply_kind, &seconds,
                          response, options_.io_timeout_ms);
  if (!s.ok()) {
    s = Status::Internal("rpc worker " + worker->endpoint +
                         " disconnected or timed out mid-round: " +
                         s.ToString());
    MarkFailed(worker, s);
    *worker_failed = true;
    return s;
  }
  if (reply_kind == static_cast<uint8_t>(RpcReplyKind::kTaskError)) {
    // The task itself failed on a healthy worker. Deterministic — the
    // same bytes would fail anywhere — so the round must not retry it,
    // and the connection stays usable for later rounds.
    *worker_failed = false;
    return Status::Internal(
        "rpc worker " + worker->endpoint + " task failed: " +
        std::string(response->begin(), response->end()));
  }
  if (reply_kind == static_cast<uint8_t>(RpcReplyKind::kSessionError)) {
    // The referenced session replica is gone on this worker (unknown or
    // TTL-expired id). The connection itself is healthy; the session
    // layer recovers by re-open + replay on kNotFound.
    *worker_failed = false;
    return Status::NotFound(
        "rpc worker " + worker->endpoint + " lost the session: " +
        std::string(response->begin(), response->end()));
  }
  if (reply_kind != static_cast<uint8_t>(RpcReplyKind::kOk)) {
    s = Status::Corruption("rpc worker " + worker->endpoint +
                           " sent an unknown reply kind " +
                           std::to_string(reply_kind));
    MarkFailed(worker, s);
    *worker_failed = true;
    return s;
  }
  *compute_seconds = seconds;
  return Status::OK();
}

std::vector<size_t> WorkerSupervisor::UsableWorkers() {
  std::vector<size_t> usable;
  usable.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker* worker = workers_[i].get();
    bool redial = false;
    {
      std::lock_guard<std::mutex> state(worker->state_mutex);
      switch (worker->health) {
        case WorkerHealth::kHealthy:
          usable.push_back(i);
          break;
        case WorkerHealth::kSuspect:
          redial = Clock::now() >= worker->next_redial_at;
          break;
        case WorkerHealth::kDead:
          break;
      }
    }
    if (redial) {
      // The dial itself needs the io lock (it replaces the socket);
      // TryRedial re-checks the state once inside, since another pass
      // may have won the race for this worker.
      std::lock_guard<std::mutex> io(worker->io_mutex);
      if (TryRedial(worker)) usable.push_back(i);
    }
  }
  return usable;
}

int WorkerSupervisor::NextRedialDelayMs() const {
  int earliest = -1;
  bool any_healthy = false;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    std::lock_guard<std::mutex> state(worker->state_mutex);
    if (worker->health == WorkerHealth::kHealthy) {
      any_healthy = true;
      continue;
    }
    if (worker->health != WorkerHealth::kSuspect) continue;
    const int delay = std::max(MillisUntil(worker->next_redial_at), 1);
    if (earliest < 0 || delay < earliest) earliest = delay;
  }
  if (earliest >= 0) return earliest;
  // No SUSPECT worker — but a HEALTHY one means "retry now", not "all
  // dead": a concurrent round may have redialed a worker between the
  // caller's empty UsableWorkers() pass and this call.
  if (any_healthy) return 1;
  return -1;
}

WorkerHealth WorkerSupervisor::health(size_t w) const {
  MPQOPT_CHECK_LT(w, workers_.size());
  return HealthOf(*workers_[w]);
}

BackendHealth WorkerSupervisor::Snapshot() const {
  BackendHealth health;
  health.workers.reserve(workers_.size());
  for (const std::unique_ptr<Worker>& worker : workers_) {
    std::lock_guard<std::mutex> state(worker->state_mutex);
    WorkerHealthSnapshot snapshot;
    snapshot.endpoint = worker->endpoint;
    snapshot.health = worker->health;
    snapshot.reconnects = worker->reconnects;
    snapshot.redial_failures = worker->redial_failures;
    snapshot.io_failures = worker->io_failures;
    snapshot.last_error = worker->last_error;
    health.workers.push_back(std::move(snapshot));
  }
  health.reconnect_attempts =
      reconnect_attempts_.load(std::memory_order_relaxed);
  health.reconnects = reconnects_.load(std::memory_order_relaxed);
  return health;
}

}  // namespace mpqopt
