// Copyright 2026 mpqopt authors.
//
// WorkerSupervisor — connection lifecycle and health supervision of the
// remote worker pool behind RpcBackend.
//
// The supervisor owns the set of "host:port" worker endpoints and, per
// worker, the persistent connection plus a health state machine:
//
//            exchange failed                    redial budget exhausted
//   HEALTHY ─────────────────► SUSPECT ───────────────────────► DEAD
//      ▲                          │
//      └──────────────────────────┘
//        redial + ping succeeded
//
// A SUSPECT worker is redialed with capped exponential backoff (first
// retry immediately — a worker that just restarted accepts at once —
// then backoff_initial_ms, doubling up to backoff_max_ms) and at most
// max_redials times per failure episode; a successful redial must answer
// a ping frame (RpcTaskKind::kPingTask with a fresh nonce) before the
// worker is trusted with round traffic again. DEAD is permanent for the
// lifetime of the supervisor: a worker that burned its redial budget is
// assumed gone, and round recovery (RpcBackend) re-scatters its tasks
// across the survivors.
//
// Thread safety: every method may be called concurrently. Each worker
// carries TWO locks: `io_mutex` serializes whole request/response
// exchanges and redials (so interleaved rounds cannot mix frames on one
// stream, and two rounds never dial one endpoint twice at once), while
// the small `state_mutex` guards the health state and counters. Health
// reads (Snapshot, health, NextRedialDelayMs, the HEALTHY fast path of
// UsableWorkers) take only the state lock, so a stats probe never stalls
// behind an in-flight exchange — worker compute time is unbounded, and a
// monitoring call must not wait on it. Lock order is io_mutex before
// state_mutex, never the reverse. Whoever holds several workers'
// io_mutexes at once (RpcBackend's scatter pass, via LockConnection)
// takes them in ascending worker index; every other path holds at most
// one, so no two callers can wait on each other in a cycle.

#ifndef MPQOPT_CLUSTER_SUPERVISOR_WORKER_SUPERVISOR_H_
#define MPQOPT_CLUSTER_SUPERVISOR_WORKER_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "common/macros.h"
#include "common/status.h"
#include "net/frame_transport.h"

namespace mpqopt {

/// Knobs of the supervision state machine (see header comment). The
/// BackendOptions worker_* fields map onto these.
struct SupervisorOptions {
  /// TCP connect timeout per dial attempt.
  int connect_timeout_ms = 5000;
  /// Bound on each task reply wait; -1 waits indefinitely.
  int io_timeout_ms = -1;
  /// Bound on the ping reply after a (re)dial. Unlike task replies, a
  /// health probe must never wait indefinitely.
  int ping_timeout_ms = 2000;
  /// Redials allowed per failure episode before SUSPECT -> DEAD.
  int max_redials = 2;
  /// Initial redial backoff; doubles per failed redial.
  int backoff_initial_ms = 50;
  /// Cap on the exponential backoff.
  int backoff_max_ms = 2000;
};

/// Upper bound on the recovery attempts a round (or a session node) gets
/// before giving up: a pathological worker that keeps accepting and then
/// dying must not livelock a caller. The pool's total redial budget is
/// (max_redials + 1) dials per worker; two passes of slack cover the
/// initial scatter and a final all-healthy retry. Exposed as a free
/// function so the arithmetic is unit-testable without sockets.
inline size_t RecoveryPassBudget(int max_redials, size_t num_workers) {
  return 2 +
         (static_cast<size_t>(max_redials > 0 ? max_redials : 0) + 1) *
             num_workers;
}

/// Owns the worker endpoints, their connections, and their health.
class WorkerSupervisor {
 public:
  /// Dials every endpoint and verifies each with a ping; fails (naming
  /// the endpoint) if any worker is unreachable or does not answer.
  static StatusOr<std::unique_ptr<WorkerSupervisor>> Connect(
      const std::vector<std::string>& endpoints, SupervisorOptions options);

  MPQOPT_DISALLOW_COPY_AND_ASSIGN(WorkerSupervisor);

  size_t num_workers() const { return workers_.size(); }
  const SupervisorOptions& options() const { return options_; }

  /// One request/response exchange on worker `w` (serialized under the
  /// worker's mutex). On a connection-level failure the worker is marked
  /// SUSPECT (`*worker_failed` = true) and the task may be re-scattered;
  /// a clean task-error reply leaves the worker HEALTHY
  /// (`*worker_failed` = false) — the failure is the task's own and
  /// deterministic, so retrying it elsewhere would fail again. A
  /// session-error reply (the referenced replica is gone; see
  /// cluster/session/) also leaves the worker HEALTHY and surfaces as
  /// StatusCode::kNotFound, which the session layer treats as
  /// recoverable by re-open + replay.
  Status Exchange(size_t w, uint8_t task_kind,
                  const std::vector<uint8_t>& request,
                  std::vector<uint8_t>* response, double* compute_seconds,
                  bool* worker_failed);

  /// Zero-copy variant of Exchange: the request goes out as a gather of
  /// `parts` (one frame, byte-identical to the concatenation) and the
  /// reply body lands directly in `*response` with the compute-seconds
  /// header split off in place — no master-side payload copies in either
  /// direction. LockConnection + SendLocked + ReceiveLocked.
  Status ExchangeV(size_t w, uint8_t task_kind, const ConstSpan* parts,
                   size_t num_parts, std::vector<uint8_t>* response,
                   double* compute_seconds, bool* worker_failed);

  /// Takes worker `w`'s connection (its io_mutex) until the returned
  /// lock is released. Hold several only if taken in ascending worker
  /// index (see the header comment).
  std::unique_lock<std::mutex> LockConnection(size_t w);

  /// ExchangeV's halves, on a connection the caller holds: SendLocked
  /// fails with `*worker_failed` = true when the worker is not HEALTHY or
  /// the send breaks; ReceiveLocked reads the reply to the frame last
  /// sent, with Exchange's outcomes.
  Status SendLocked(size_t w, uint8_t task_kind, const ConstSpan* parts,
                    size_t num_parts, bool* worker_failed);
  Status ReceiveLocked(size_t w, std::vector<uint8_t>* response,
                       double* compute_seconds, bool* worker_failed);

  /// Indices of workers a scatter pass may use right now: every HEALTHY
  /// worker, plus every SUSPECT worker whose backoff has expired and
  /// whose redial-plus-ping succeeded inline during this call.
  std::vector<size_t> UsableWorkers();

  /// Milliseconds (>= 1) until another scatter attempt makes sense:
  /// the earliest SUSPECT worker's backoff expiry, or 1 when a worker is
  /// already HEALTHY again (a concurrent round may have redialed it
  /// between this caller's UsableWorkers() and now — retry immediately,
  /// not "all dead"). Returns -1 only when every worker is DEAD and the
  /// pool can never serve again. The round-recovery loop sleeps on this
  /// when a scatter pass finds no usable worker.
  int NextRedialDelayMs() const;

  /// Health of worker `w` (point-in-time).
  WorkerHealth health(size_t w) const;

  /// Per-worker snapshots plus the aggregate reconnect counters.
  BackendHealth Snapshot() const;

  /// The backoff before redial attempt `failed_redials` + 1: 0 for the
  /// first attempt of an episode, then backoff_initial_ms doubling per
  /// failure, capped at backoff_max_ms. Exposed for tests.
  static int BackoffDelayMs(const SupervisorOptions& options,
                            int failed_redials);

 private:
  struct Worker {
    std::string endpoint;
    /// Serializes socket use: whole exchanges and redials. Held long
    /// (a task exchange spans the worker's compute time). Several are
    /// held at once only in ascending worker index.
    mutable std::mutex io_mutex;
    /// Guards everything below. Held only for O(1) reads/writes, so
    /// health snapshots never wait on network I/O. Acquired after
    /// io_mutex when both are needed; never the other way around.
    mutable std::mutex state_mutex;
    Socket socket;  ///< touched only under io_mutex
    WorkerHealth health = WorkerHealth::kHealthy;
    /// Failed redials in the current episode; resets on success.
    int episode_redial_failures = 0;
    std::chrono::steady_clock::time_point next_redial_at;
    /// Cumulative counters for snapshots.
    uint64_t reconnects = 0;
    uint64_t redial_failures = 0;
    uint64_t io_failures = 0;
    std::string last_error;
  };

  explicit WorkerSupervisor(SupervisorOptions options)
      : options_(options) {}

  /// Dial + ping-verify one endpoint.
  StatusOr<Socket> EstablishConnection(const std::string& endpoint) const;

  /// Health of `worker` under its state lock.
  WorkerHealth HealthOf(const Worker& worker) const;

  /// Marks `worker` failed after a connection-level error (caller holds
  /// io_mutex): closes the socket, transitions to SUSPECT (or straight
  /// to DEAD when the redial budget is 0), records `error`.
  void MarkFailed(Worker* worker, const Status& error);

  /// Attempts one redial of a SUSPECT worker whose backoff expired
  /// (caller holds io_mutex). Returns true when the worker is HEALTHY
  /// again — either this call's redial succeeded, or a concurrent one
  /// already had.
  bool TryRedial(Worker* worker);

  SupervisorOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> reconnect_attempts_{0};
  std::atomic<uint64_t> reconnects_{0};
  mutable std::atomic<uint64_t> ping_nonce_{0};
};

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SUPERVISOR_WORKER_SUPERVISOR_H_
