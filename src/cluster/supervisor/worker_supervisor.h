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
// Pipelined connections: a worker's connection carries frames from
// several rounds (and session steps and stats polls) at once. A send takes
// the connection's send lock only for its own write and, in the same
// critical section, gives the frame its place in the connection's FIFO of
// unanswered frames. The worker answers a connection's frames in order,
// so whichever thread waits on the connection reads the next reply (one
// reader at a time) and files it (body, reply kind, compute seconds) for
// the frame that asked for it; that frame's sender finds it filed. Nobody
// holds a connection through a worker's compute.
//
// Why no cycle of waits can form. A master thread blocks on a connection
// in one of three ways: it reads the next reply (waiting for the worker's
// output), it waits for the current reader to file its reply or give up
// reading, or it writes a frame the worker is not taking yet (or waits
// for the send lock such a writer holds). A writer that would block
// reads replies itself whenever no other thread is reading
// (SendBackpressure). So while any thread waits on a connection,
// somebody drains its replies; the worker is then never stuck writing a
// reply, and it reads the queued frames in order and answers each after
// its compute. Every wait therefore ends once the worker has answered
// the frames queued ahead of it, and depends on no other connection and
// on no other thread doing anything but reading this one. That holds
// whatever order rounds send in and however large frames and replies
// are. A per-connection turn, where each thread reads only its own
// reply, would deadlock once replies outgrow the socket buffers: round A
// waits for its turn behind round B's reply on worker 0, B is blocked
// sending to worker 1, and worker 1 cannot read B's frame while it is
// still writing A's reply, which nobody reads.
//
// Failure: the first error on a connection (a send or read failure, a
// reply or a stalled send past io_timeout_ms, an unknown reply kind)
// shuts its socket down (shutdown(), not close(): other threads may be
// blocked on it), fails every frame queued on it, so their rounds
// re-scatter, and marks the worker SUSPECT. A connection is reference-counted: its descriptor is
// closed only after the last thread using it has left, and a redial
// installs a new connection rather than swapping the socket under them.
//
// Thread safety: every method may be called concurrently. Locks nest in
// one order only: a connection's send lock, then its queue mutex, then
// the worker's state mutex; the worker's dial mutex (one redial at a
// time) is taken before its state mutex. Health reads (Snapshot, health,
// NextRedialDelayMs, the HEALTHY fast path of UsableWorkers) take only
// the state mutex, so a stats probe never waits on network I/O.

#ifndef MPQOPT_CLUSTER_SUPERVISOR_WORKER_SUPERVISOR_H_
#define MPQOPT_CLUSTER_SUPERVISOR_WORKER_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "cluster/task_registry.h"
#include "common/macros.h"
#include "common/status.h"
#include "net/frame_transport.h"
#include "obs/trace.h"

namespace mpqopt {

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

  class PendingReply;

  /// One request/response exchange on worker `w`: Send, then Receive. On
  /// a connection-level failure the worker is marked SUSPECT
  /// (`*worker_failed` = true) and the task may be re-scattered; a clean
  /// task-error reply leaves the worker HEALTHY (`*worker_failed` =
  /// false) — the failure is the task's own and deterministic, so
  /// retrying it elsewhere would fail again. A session-error reply (the
  /// referenced replica is gone; see cluster/session/) also leaves the
  /// worker HEALTHY and surfaces as StatusCode::kNotFound, which the
  /// session layer treats as recoverable by re-open + replay.
  Status Exchange(size_t w, uint8_t task_kind,
                  const std::vector<uint8_t>& request,
                  std::vector<uint8_t>* response, double* compute_seconds,
                  bool* worker_failed);

  /// Zero-copy variant of Exchange: the request goes out as a gather of
  /// `parts` (one frame, byte-identical to the concatenation) and the
  /// reply body lands directly in `*response` with the compute-seconds
  /// header split off in place.
  Status ExchangeV(size_t w, uint8_t task_kind, const ConstSpan* parts,
                   size_t num_parts, std::vector<uint8_t>* response,
                   double* compute_seconds, bool* worker_failed);

  /// Writes one frame to worker `w` and queues `*pending` for its reply,
  /// whose body will land in `*response` (which must stay valid until
  /// Receive returns). Fails with `*worker_failed` = true, and nothing
  /// queued, when the worker is not HEALTHY or its connection breaks.
  Status Send(size_t w, uint8_t task_kind, const ConstSpan* parts,
              size_t num_parts, std::vector<uint8_t>* response,
              PendingReply* pending, bool* worker_failed);

  /// Waits until the reply to `*pending`'s frame is filed, reading the
  /// connection's next replies itself while no other thread does; then
  /// returns with Exchange's outcomes. `*pending` may be sent again after.
  Status Receive(PendingReply* pending, double* compute_seconds,
                 bool* worker_failed);

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
  struct Connection;
  class ReplyPump;

  struct Worker {
    std::string endpoint;
    /// One redial at a time; held across the dial and its ping.
    std::mutex dial_mutex;
    /// Guards everything below. Held only for O(1) reads/writes, so
    /// health snapshots never wait on network I/O.
    mutable std::mutex state_mutex;
    /// The live connection; null after a failure until a redial installs
    /// a new one. Senders take a reference, so a failed connection's
    /// descriptor stays open until its last user has left.
    std::shared_ptr<Connection> connection;
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

  /// Reads the reply at the front of `connection`'s FIFO and files it for
  /// its frame. The caller holds `*lock` on the connection's mutex, no
  /// other thread is reading, and the FIFO is not empty; the lock is
  /// released during the read.
  void ReadNextReply(Worker* worker, Connection* connection,
                     std::unique_lock<std::mutex>* lock);

  /// Fails `connection` after a connection-level error (caller holds its
  /// mutex and a reference): the first error shuts the socket down, fails
  /// every queued frame, drops the worker's reference and moves the
  /// worker to SUSPECT (or straight to DEAD when the redial budget is 0).
  /// Returns the connection's failure, which the first error becomes.
  Status FailConnection(Worker* worker, Connection* connection,
                        const Status& error);

  /// Attempts one redial of a SUSPECT worker whose backoff expired
  /// (caller holds dial_mutex). Returns true when the worker is HEALTHY
  /// again — either this call's redial succeeded, or a concurrent one
  /// already had.
  bool TryRedial(Worker* worker);

  SupervisorOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> reconnect_attempts_{0};
  std::atomic<uint64_t> reconnects_{0};
  mutable std::atomic<uint64_t> ping_nonce_{0};
};

/// One frame queued on a worker connection, from its send until its
/// reply is filed. Not movable: the connection's FIFO points at it. A
/// successful Send must be followed by Receive before it is destroyed.
class WorkerSupervisor::PendingReply {
 public:
  PendingReply() = default;
  ~PendingReply();
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(PendingReply);

 private:
  friend class WorkerSupervisor;
  enum class State : uint8_t { kQueued, kReading, kFiled, kFailed };

  /// Set from a successful Send until Receive returns.
  std::shared_ptr<Connection> connection_;
  size_t worker_ = 0;
  std::vector<uint8_t>* body_ = nullptr;
  /// The rest is guarded by the connection's mutex.
  State state_ = State::kQueued;
  uint8_t reply_kind_ = 0;
  double seconds_ = 0;
  Status error_;
};

/// Records a traced frame's worker spans under its rpc.exchange span
/// `exchange` [sent_ns, end_ns], from the timings its reply carries: one
/// worker.serve that lasts the reply header's `serve_seconds` and ends
/// when the reply was read, clamped to the exchange; inside it, one
/// worker.compute per slot, laid back to back in slot order (the order
/// the worker ran them) and clamped to worker.serve. The worker measured
/// every duration; only their placement on the master's clock is
/// computed here. RpcBackend records round frames this way, and
/// ExchangeV session frames, whose one slot is the whole frame.
void AddWorkerSpans(obs::QueryTrace* trace, uint32_t exchange,
                    uint64_t sent_ns, uint64_t end_ns, double serve_seconds,
                    const std::vector<BatchSlot>& slots);

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SUPERVISOR_WORKER_SUPERVISOR_H_
