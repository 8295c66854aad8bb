// Copyright 2026 mpqopt authors.
//
// ExecutionBackend — the pluggable worker-execution runtime.
//
// Worker tasks are self-contained functions from request bytes to response
// bytes — exactly the contract a remote executor would have. Tasks never
// touch shared optimizer state; the only inter-node channel is the
// serialized messages. A backend decides how those tasks are hosted:
//
//  * AsyncBatchBackend — a persistent in-process worker pool that stays
//                        alive across rounds and interleaves tasks from
//                        concurrently submitted rounds. DefaultBackend()
//                        is one such pool per process: what every
//                        optimizer and OptimizerService without an
//                        explicit backend runs on.
//  * RpcBackend        — tasks run in separate mpqopt_worker processes
//                        reached over TCP (see cluster/rpc_backend.h); the
//                        same byte contract, on a real wire, with worker
//                        memory genuinely private to each process.
//
// All backends produce identical responses and identical byte counts for
// the same tasks (asserted by tests/backend_test.cc). Every backend's
// RunRound is safe to call from multiple threads concurrently.
//
// A backend only hosts tasks: it records each task's compute time, the
// round's traffic and its measured wall-clock time. The modeled cluster
// time — what the round would take with one physical node per task, i.e.
// dispatch overheads + max over workers of (request transfer + compute +
// response transfer) — is the optimizer's, computed by
// ModeledRoundSeconds from the NetworkModel in its own options. So the
// numbers the benchmarks report do not depend on the hosting choice, and
// one backend can serve optimizers that model different clusters. The
// modeled time is what the paper's "Time (ms)" axes correspond to;
// measured per-worker compute ("W-Time") is reported alongside, as in
// Figure 2.

#ifndef MPQOPT_CLUSTER_BACKEND_H_
#define MPQOPT_CLUSTER_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/network_model.h"
#include "obs/metrics_export.h"

namespace mpqopt {

class SessionHandle;                     // cluster/session/session.h
enum class StatefulTaskKind : uint8_t;   // cluster/session/stateful_task.h

/// A worker task: consumes a request payload, returns a response payload.
using WorkerTask =
    std::function<StatusOr<std::vector<uint8_t>>(const std::vector<uint8_t>&)>;

/// Result of executing one round of tasks.
struct RoundResult {
  /// Response payload per task, in task order.
  std::vector<std::vector<uint8_t>> responses;
  /// Measured compute seconds per task (excludes transfers).
  std::vector<double> compute_seconds;
  /// Measured wall-clock seconds for the whole round on this host.
  double wall_seconds = 0;
  /// Bytes and messages that crossed the simulated network this round.
  TrafficStats traffic;
};

/// Shared round accounting, usable by both stateless rounds and session
/// rounds: records request/response traffic (request_sizes[i] is the
/// payload size task/node i received) and files the measured wall time
/// in the round-time histogram. Requires result->responses to be filled
/// in and wall_seconds set.
void AccountRound(const std::vector<size_t>& request_sizes,
                  RoundResult* result);

/// Modeled cluster completion time of one round: the master dispatches
/// all tasks (setup cost per task, serially on the master), every worker
/// runs in parallel on its own node, and the round completes when the
/// slowest worker's response has arrived back at the master. Task i
/// received requests[i], computed for compute_seconds[i] and replied
/// responses[i].
double ModeledRoundSeconds(const NetworkModel& model,
                           const std::vector<std::vector<uint8_t>>& requests,
                           const std::vector<std::vector<uint8_t>>& responses,
                           const std::vector<double>& compute_seconds);

/// Session activity of a backend, aggregated across every SessionHandle
/// it opened (cluster/session/). Plain-value mirror of the internal
/// atomic counters, reported through BackendHealth.
struct SessionCounterSnapshot {
  /// OpenSession calls that succeeded (one per session group).
  uint64_t sessions_opened = 0;
  /// Stateful rounds executed (Step + Broadcast calls).
  uint64_t session_rounds = 0;
  /// Node replicas rebuilt by re-open + replay after a worker failure.
  uint64_t sessions_recovered = 0;
  /// Session groups that ended in an unrecoverable error.
  uint64_t sessions_failed = 0;
};

/// Health of one supervised remote worker (cluster/supervisor/). The
/// state machine is driven by I/O outcomes: an exchange failure moves a
/// worker HEALTHY -> SUSPECT, a successful redial (verified by a ping
/// frame) moves it back, and exhausting the redial budget of one failure
/// episode moves it SUSPECT -> DEAD permanently.
enum class WorkerHealth : uint8_t {
  kHealthy = 0,  ///< serving; exchanges go to it
  kSuspect = 1,  ///< last exchange failed; redial pending (with backoff)
  kDead = 2,     ///< redial budget exhausted; never dialed again
};

/// "healthy" / "suspect" / "dead".
const char* WorkerHealthName(WorkerHealth health);

/// Point-in-time view of one supervised worker.
struct WorkerHealthSnapshot {
  std::string endpoint;
  WorkerHealth health = WorkerHealth::kHealthy;
  /// Successful redials (connection re-established and ping-verified).
  uint64_t reconnects = 0;
  /// Redial attempts that failed (dial or ping).
  uint64_t redial_failures = 0;
  /// Request/response exchanges that failed at the connection level.
  uint64_t io_failures = 0;
  /// Most recent connection-level failure, empty if none.
  std::string last_error;
};

/// Supervision counters of a backend. The in-process backend has no
/// remote workers and reports the default (all-empty) value; RpcBackend
/// reports its supervisor's live state.
struct BackendHealth {
  /// One entry per remote worker endpoint; empty for the in-process
  /// backend.
  std::vector<WorkerHealthSnapshot> workers;
  /// Redials attempted / succeeded across all workers.
  uint64_t reconnect_attempts = 0;
  uint64_t reconnects = 0;
  /// Tasks that failed on one worker and were re-scattered to another
  /// attempt (possibly the same worker after a reconnect).
  uint64_t tasks_rescattered = 0;
  /// Rounds that needed at least one re-scatter pass to complete.
  uint64_t rounds_recovered = 0;
  /// Rpc scatter frames: kBatchTask envelopes sent (each one frame
  /// carrying a worker's share of >= 2 task requests), and the task
  /// requests that rode in them. A lone task ships plain and counts in
  /// neither.
  uint64_t scatter_batches = 0;
  uint64_t tasks_coalesced = 0;
  /// Stateful-session activity (cluster/session/); all-zero on a backend
  /// that never opened a session.
  SessionCounterSnapshot sessions;

  size_t CountWorkers(WorkerHealth health) const {
    size_t n = 0;
    for (const WorkerHealthSnapshot& w : workers) {
      if (w.health == health) ++n;
    }
    return n;
  }
};

/// Executes rounds of independent worker tasks.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Runs one round: task i receives requests[i]. Returns an error if any
  /// task fails (first failure wins). Thread-safe: rounds submitted from
  /// different threads run concurrently on the same backend.
  virtual StatusOr<RoundResult> RunRound(
      const std::vector<WorkerTask>& tasks,
      const std::vector<std::vector<uint8_t>>& requests) = 0;

  /// Opens a stateful session: one replica per entry of `open_requests`,
  /// built by the registered kind's open function (see
  /// cluster/session/stateful_task.h). The default implementation hosts
  /// the replicas in this process and runs scatter steps through
  /// RunRound (cluster/session/local_session.h) — correct for the
  /// in-process backend; RpcBackend overrides it with the wire protocol.
  /// The handle must not outlive this backend.
  virtual StatusOr<std::unique_ptr<SessionHandle>> OpenSession(
      StatefulTaskKind kind,
      const std::vector<std::vector<uint8_t>>& open_requests);

  /// Short human-readable backend name ("async", "rpc").
  virtual const char* name() const = 0;

  /// Internal (atomic) session counters, shared by pointer with the
  /// SessionHandles this backend opens; health() snapshots them. The
  /// type is public so the handle implementations can name it; the
  /// member itself stays protected.
  struct SessionCounters {
    std::atomic<uint64_t> opened{0};
    std::atomic<uint64_t> rounds{0};
    std::atomic<uint64_t> recovered{0};
    std::atomic<uint64_t> failed{0};
  };

  /// Supervision snapshot: per-worker health and reconnect/re-scatter
  /// counters, plus session activity. The in-process backend has nothing
  /// to supervise and reports only the session counters.
  virtual BackendHealth health() const;

  /// Fleet stats poll for the telemetry plane: one MetricsRegistry
  /// sample per currently-HEALTHY remote worker, fetched through the
  /// kStatsPollTask envelope (RpcBackend). The in-process backend shares
  /// the master's registry — its stats are already in the master sample —
  /// and reports the default empty list.
  virtual std::vector<obs::WorkerStatsSample> PollWorkerStats();

 protected:
  /// Shared post-round accounting; delegates to AccountRound.
  void FinalizeRound(const std::vector<std::vector<uint8_t>>& requests,
                     RoundResult* result) const;

  /// Copies the session counters into `health->sessions`.
  void FillSessionCounters(BackendHealth* health) const;

  SessionCounters session_counters_;
};

/// Selects a backend implementation by name.
enum class BackendKind : uint8_t {
  kAsyncBatch = 0, ///< persistent in-process pool (default)
  kRpc = 1,        ///< remote mpqopt_worker processes over TCP
};

/// Name of a backend kind ("async" / "rpc").
const char* BackendKindName(BackendKind kind);

/// Parses a backend name as accepted by the CLI's --backend= flag.
/// The error message enumerates every accepted kind.
StatusOr<BackendKind> ParseBackendKind(const std::string& name);

/// "async|rpc" — the canonical names of every backend kind, for --help
/// text and error messages. Generated from the same table as
/// BackendKindName/ParseBackendKind, so it can never go stale.
std::string BackendKindList();

/// Knobs of the rpc backend's worker supervision state machine (see
/// cluster/supervisor/worker_supervisor.h).
struct SupervisorOptions {
  /// TCP connect timeout per dial attempt.
  int connect_timeout_ms = 5000;
  /// Bound on each reply, read in the connection's FIFO order, and on a
  /// send the worker stops taking bytes of; -1 waits indefinitely (worker
  /// compute time is unbounded in general — see cluster/rpc_backend.h).
  /// On expiry the connection fails, and every frame queued on it
  /// re-scatters.
  int io_timeout_ms = -1;
  /// Redials allowed per failure episode before SUSPECT -> DEAD. 0 marks
  /// a failed worker DEAD on its first failure (its tasks still
  /// re-scatter to survivors). CLI: --worker-retries.
  int max_redials = 2;
  /// Initial redial backoff; doubles per failed redial up to
  /// backoff_max_ms. CLI: --worker-backoff-ms.
  int backoff_initial_ms = 50;
  /// Cap on the exponential backoff.
  int backoff_max_ms = 2000;
};

/// Everything MakeBackend can need; kinds ignore the fields that do not
/// apply to them.
struct BackendOptions {
  /// Pool threads of the async backend. 0 = hardware concurrency minus
  /// one: the submitting thread drains its own round too, so pool plus
  /// caller fill the cores.
  int max_threads = 0;
  /// Comma-separated "host:port" worker endpoints (numeric IPv4 or
  /// "localhost") — required by kRpc, ignored by kAsyncBatch.
  std::string workers_addr;
  /// Worker supervision of the rpc backend.
  SupervisorOptions supervision;
};

/// Creates a backend of `kind`. Fails with a descriptive Status when the
/// options are unusable for the kind (e.g. kRpc without workers_addr) or
/// a remote worker cannot be reached; kAsyncBatch always succeeds.
StatusOr<std::shared_ptr<ExecutionBackend>> MakeBackend(
    BackendKind kind, const BackendOptions& options);

/// The process-wide in-process pool: one AsyncBatchBackend of hardware
/// concurrency minus one threads, built on first use and shared by every
/// caller. It is what a null backend means for MpqOptimizer and
/// OptimizerService.
std::shared_ptr<ExecutionBackend> DefaultBackend();

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_BACKEND_H_
