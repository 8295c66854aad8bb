// Copyright 2026 mpqopt authors.
//
// RpcSessionHandle — session hosting over real sockets.
//
// Each replica ("node") lives in a remote mpqopt_worker process, keyed
// by a master-chosen session id inside the worker connection's
// SessionStore. Nodes are dealt over the supervised worker pool
// round-robin (a pool smaller than the node count hosts several replicas
// per worker under distinct ids); every open/step/close crosses the wire
// through WorkerSupervisor::Exchange, so session traffic shares the
// supervision machinery of the stateless rounds — frames queued in order
// on each worker's one connection, SUSPECT/DEAD health transitions,
// redial with backoff.
//
// Failure handling: replica state is deterministic —
// fold(step, open(open_request), broadcast log) — so a lost replica is
// REBUILDABLE. When an exchange fails at the connection level (worker
// died; supervisor redials it) or returns kSessionError (the replica is
// gone: the connection was redialed, or the worker restarted, or the TTL
// expired), the handle re-opens the node's session on a currently usable
// worker — the same endpoint after a reconnect, or a survivor (the node
// MIGRATES) — replays the recorded broadcasts, and retries the failed
// round step. Attempts are bounded by RecoveryPassBudget; a
// deterministic task error (including the worker-side byte cap) or an
// all-workers-DEAD pool fails the session immediately and permanently.
// Recovery replays are real traffic but are NOT added to the round's
// TrafficStats: the reported numbers describe the failure-free
// algorithm, exactly as RunRound's re-scatter accounting does.

#ifndef MPQOPT_CLUSTER_SESSION_RPC_SESSION_H_
#define MPQOPT_CLUSTER_SESSION_RPC_SESSION_H_

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/session/session.h"
#include "cluster/session/stateful_task.h"
#include "cluster/supervisor/worker_supervisor.h"

namespace mpqopt {

class RpcSessionHandle : public SessionHandle {
 public:
  /// Opens one remote replica per open request, dealt over the usable
  /// workers starting at `rotate_base` (so concurrent sessions spread
  /// over the pool). `supervisor` and `counters` belong to the owning
  /// RpcBackend and outlive the handle.
  static StatusOr<std::unique_ptr<SessionHandle>> Open(
      WorkerSupervisor* supervisor,
      ExecutionBackend::SessionCounters* counters, StatefulTaskKind kind,
      const std::vector<std::vector<uint8_t>>& open_requests,
      size_t rotate_base);

  ~RpcSessionHandle() override;

  size_t num_nodes() const override { return nodes_.size(); }
  StatusOr<RoundResult> Step(
      const std::vector<std::vector<uint8_t>>& requests) override;
  StatusOr<RoundResult> Broadcast(
      const std::vector<uint8_t>& payload) override;
  void Close() override;

 private:
  struct Node {
    size_t worker = 0;  ///< current hosting worker (changes on migration)
    uint64_t id = 0;    ///< wire session id (stable across re-opens)
    std::vector<uint8_t> open_request;  ///< kept for recovery re-opens
  };

  RpcSessionHandle(WorkerSupervisor* supervisor,
                   ExecutionBackend::SessionCounters* counters,
                   StatefulTaskKind kind)
      : supervisor_(supervisor), counters_(counters), kind_(kind) {}

  /// Shared Step/Broadcast machinery: requests[i] goes to node i; when
  /// `record` is non-null the payload is appended to the replay log
  /// after the round succeeds.
  StatusOr<RoundResult> RunSessionRound(
      const std::vector<const std::vector<uint8_t>*>& requests,
      const std::vector<uint8_t>* record);

  /// One step exchange on the node's current worker, with bounded
  /// re-open + replay recovery on connection or session loss.
  Status StepNode(Node* node, const std::vector<uint8_t>& request,
                  std::vector<uint8_t>* response, double* compute_seconds);

  /// (Re-)opens the node on one usable worker and replays the broadcast
  /// log (waits out redial backoff when no worker is usable yet). With
  /// `prefer_current`, the node's current worker is chosen when usable
  /// (initial placement; reconnect locality on the first recovery try);
  /// otherwise the choice rotates over the survivors — the node
  /// migrates. On failure `*final_failure` says whether retrying on
  /// another worker could help (false) or the failure is final (true: a
  /// deterministic open/replay error, or every worker is DEAD).
  Status RecoverNode(Node* node, bool prefer_current, bool* final_failure);

  /// Sends open + replay to worker `w`; on success the node is hosted
  /// there. `*final_failure` as for RecoverNode.
  Status OpenNodeOn(size_t w, Node* node, bool* final_failure);

  WorkerSupervisor* supervisor_;
  ExecutionBackend::SessionCounters* counters_;
  const StatefulTaskKind kind_;
  std::vector<Node> nodes_;
  /// Broadcast payloads in application order; replica state is always
  /// fold(step, open, this log), which recovery relies on.
  std::vector<std::vector<uint8_t>> replay_log_;
  /// Spreads recovery re-opens over the usable pool.
  std::atomic<size_t> recover_rotor_{0};
  Status failed_ = Status::OK();  ///< first unrecoverable error, sticky
  bool closed_ = false;
};

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SESSION_RPC_SESSION_H_
