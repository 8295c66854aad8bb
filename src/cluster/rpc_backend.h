// Copyright 2026 mpqopt authors.
//
// RpcBackend — ExecutionBackend over real TCP sockets.
//
// AsyncBatchBackend hosts worker tasks on this machine; RpcBackend is the
// genuinely distributed runtime: each round's requests are scattered over
// a pool of persistent connections to mpqopt_worker server processes, and
// the request/response byte contract on the wire is exactly the payload
// contract the in-process backend executes — the conformance suite in
// tests/backend_test.cc asserts byte-identical responses and identical
// TrafficStats across both backends.
//
// Protocol, on top of the framed transport (src/net/frame_transport.h):
//
//   request frame   kind = RpcTaskKind, payload = request bytes
//   reply frame     kind = RpcReplyKind, payload = compute-seconds header
//                   then response bytes or status text
//                   (see cluster/rpc_protocol.h)
//
// Frame kinds at or above kSessionFrameKindBase are session-control
// frames of the stateful-worker protocol (cluster/session/): the serve
// loop routes them into a per-connection SessionStore, and OpenSession
// returns a wire-backed SessionHandle with reconnect + replay recovery.
//
// Failure handling is SELF-HEALING, not fail-fast: connection lifecycle
// and worker health live in a WorkerSupervisor
// (cluster/supervisor/worker_supervisor.h), which redials failed workers
// with capped exponential backoff and ping-verifies them before reuse.
// RunRound layers round-level recovery on top — when an exchange fails at
// the connection level, only the tasks that did not complete are
// re-scattered across the currently usable workers (tasks are pure
// functions of their request bytes, so a retry elsewhere returns the same
// bytes, and each task's compute seconds come from its one successful
// attempt — modeled cluster time stays consistent with the in-process
// backends). A round fails only when a task itself errors (deterministic,
// never retried), when every worker is DEAD, or when the bounded number
// of re-scatter passes is exhausted (a pathological worker that keeps
// accepting and dying cannot livelock a round). Retry/backoff knobs come
// from BackendOptions: worker_retries, worker_backoff_ms,
// worker_backoff_max_ms, io_timeout_ms.
//
// Thread safety: RunRound may be called concurrently; the supervisor's
// per-worker mutex serializes whole request/response exchanges, so
// interleaved rounds cannot mix frames on one stream.

#ifndef MPQOPT_CLUSTER_RPC_BACKEND_H_
#define MPQOPT_CLUSTER_RPC_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "cluster/rpc_protocol.h"
#include "cluster/session/session_store.h"
#include "cluster/supervisor/worker_supervisor.h"
#include "net/frame_transport.h"

namespace mpqopt {

/// Master-side backend dispatching rounds to remote worker processes.
class RpcBackend : public ExecutionBackend {
 public:
  /// Connects to (and ping-verifies) every "host:port" endpoint; fails
  /// naming the endpoint if any worker is unreachable. Supervision knobs
  /// (redial budget, backoff, reply deadline) ride in `supervision`.
  /// With `coalesce_scatter`, RunRound merges each worker's share of a
  /// round into one kBatchTask envelope frame, group-committed with
  /// whatever other rounds are scattering to that worker at the same
  /// moment (BackendOptions::coalesce_scatter; responses, plan bytes,
  /// and modeled accounting are identical either way).
  static StatusOr<std::shared_ptr<RpcBackend>> Connect(
      NetworkModel model, const std::vector<std::string>& endpoints,
      SupervisorOptions supervision = {}, bool coalesce_scatter = false);

  StatusOr<RoundResult> RunRound(
      const std::vector<WorkerTask>& tasks,
      const std::vector<std::vector<uint8_t>>& requests) override;

  /// Stateful sessions over the wire: replicas live in remote
  /// mpqopt_worker processes, with reconnect + replay recovery (see
  /// cluster/session/rpc_session.h).
  StatusOr<std::unique_ptr<SessionHandle>> OpenSession(
      StatefulTaskKind kind,
      const std::vector<std::vector<uint8_t>>& open_requests) override;

  const char* name() const override { return "rpc"; }

  /// Per-worker health plus reconnect/re-scatter counters.
  BackendHealth health() const override;

  /// Polls every HEALTHY worker's metrics registry over a kStatsPollTask
  /// exchange. A failed poll marks that worker SUSPECT exactly like a
  /// failed round exchange (a scrape doubles as a passive health probe)
  /// and the worker is skipped, never the whole poll.
  std::vector<obs::WorkerStatsSample> PollWorkerStats() override;

  /// Number of supervised worker endpoints (the maximal scatter width).
  size_t num_connections() const { return supervisor_->num_workers(); }

  const WorkerSupervisor& supervisor() const { return *supervisor_; }

 private:
  RpcBackend(NetworkModel model, std::unique_ptr<WorkerSupervisor> supervisor,
             bool coalesce_scatter);

  /// One task request riding a coalesced exchange, with its per-task
  /// outputs — the batcher fills exactly what a plain Exchange would.
  struct BatchItem {
    uint8_t kind = 0;
    const std::vector<uint8_t>* request = nullptr;
    std::vector<uint8_t>* response = nullptr;
    double* compute_seconds = nullptr;
    Status status;
    bool worker_failed = false;
    bool finished = false;
  };

  /// Per-worker group-commit queue: concurrent lanes enqueue their
  /// items; one submitter at a time becomes the drainer and flushes
  /// everything queued — its own items plus whatever other rounds have
  /// queued meanwhile — as a single kBatchTask envelope.
  struct WorkerBatcher {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<BatchItem*> queue;
    bool draining = false;
  };

  /// Runs `items` on worker `w` through the batcher; returns when every
  /// item is finished (each with its own status, like N plain
  /// Exchanges).
  void ExchangeCoalesced(size_t w, const std::vector<BatchItem*>& items);
  /// Sends one drained batch (envelope, or a plain exchange for a lone
  /// item) and fills the items' outputs. Marked finished by the caller
  /// under the batcher lock.
  void DriveBatch(size_t w, const std::vector<BatchItem*>& batch);

  std::unique_ptr<WorkerSupervisor> supervisor_;
  const bool coalesce_scatter_;
  std::vector<std::unique_ptr<WorkerBatcher>> batchers_;
  std::atomic<uint64_t> tasks_rescattered_{0};
  std::atomic<uint64_t> rounds_recovered_{0};
  std::atomic<uint64_t> scatter_batches_{0};
  std::atomic<uint64_t> tasks_coalesced_{0};
  /// Rotates each round's first worker so concurrent small rounds spread
  /// over the whole pool.
  std::atomic<size_t> round_offset_{0};
};

/// Splits a comma-separated "--workers-addr=" value into endpoints,
/// dropping empty entries.
std::vector<std::string> SplitEndpoints(const std::string& comma_separated);

/// Worker-server-side knobs shared by every serving thread.
struct RpcServeOptions {
  /// Graceful-shutdown flag (mpqopt_worker sets it from SIGTERM/SIGINT).
  /// When non-null, idle serving threads poll it and exit once set; an
  /// in-flight task is drained — executed and answered — first.
  const std::atomic<bool>* stop = nullptr;
  /// Chaos test axis (mpqopt_worker --chaos-kill-after=N): when non-null,
  /// decremented once per received task request; when it drops below
  /// zero the process exits abruptly WITHOUT replying — a deterministic
  /// mid-round crash for the failover tests.
  std::atomic<int64_t>* chaos_tasks_remaining = nullptr;
  /// Session-store knobs of this worker (TTL GC, per-session byte cap);
  /// every connection gets its own store built from these.
  SessionStoreOptions sessions;
};

/// Worker-server side: serves framed task requests on one established
/// connection until the peer disconnects (or `serve.stop` is set and the
/// connection is idle). Runs the registered entry point for each
/// request's task kind; unknown kinds get a task-error reply.
void ServeRpcConnection(Socket socket, RpcServeOptions serve = {});

/// Accept loop of mpqopt_worker: spawns one serving thread per accepted
/// connection. After `serve.stop` is set, returns OK once every serving
/// thread has drained, or an error when the 10 s grace period expires
/// with tasks still in flight (so exit 0 really means "nothing was
/// cut off"). Without a stop flag it returns only on a fatal accept
/// failure.
Status ServeRpcWorker(TcpListener* listener, RpcServeOptions serve = {});

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_RPC_BACKEND_H_
