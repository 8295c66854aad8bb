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
// A round sends each worker its whole share in ONE frame, the paper's
// one scatter and one gather per query: a kBatchTask envelope holding the
// share's requests (cluster/task_registry.h), or the plain request when
// the share is a single task. The calling thread sends every used
// worker's frame, then reads the replies in send order; no thread is
// started per round. A share too large for one frame goes out as several,
// with at most one outstanding per connection.
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
// attempt — the optimizer's modeled cluster time stays consistent with
// the in-process backend). A round fails only when a task itself errors
// (deterministic, never retried), when every worker is DEAD, or when the
// bounded number of re-scatter passes is exhausted (a pathological worker
// that keeps accepting and dying cannot livelock a round). Retry/backoff
// knobs come from BackendOptions: worker_retries, worker_backoff_ms,
// worker_backoff_max_ms, io_timeout_ms.
//
// Thread safety: RunRound may be called concurrently. A scatter pass
// holds each used worker's connection from its send to its last reply,
// so interleaved rounds cannot mix frames on one stream, and takes those
// connections in ascending worker index, so two rounds (or a round and a
// session step or stats poll, which hold one connection at a time) can
// never wait on each other in a cycle.

#ifndef MPQOPT_CLUSTER_RPC_BACKEND_H_
#define MPQOPT_CLUSTER_RPC_BACKEND_H_

#include <atomic>
#include <memory>
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
  static StatusOr<std::shared_ptr<RpcBackend>> Connect(
      const std::vector<std::string>& endpoints,
      SupervisorOptions supervision = {});

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

 private:
  explicit RpcBackend(std::unique_ptr<WorkerSupervisor> supervisor);

  std::unique_ptr<WorkerSupervisor> supervisor_;
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
  /// decremented once per received request frame other than a ping — a
  /// kBatchTask frame carrying a worker's whole share of a round counts
  /// once, as does each session frame; when it drops below zero the
  /// process exits abruptly WITHOUT replying — a deterministic mid-round
  /// crash for the failover tests.
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
