// Copyright 2026 mpqopt authors.
//
// SessionHandle — the master side of the stateful-worker session
// protocol.
//
// A round of stateless tasks (ExecutionBackend::RunRound) is a pure
// scatter/gather: no worker remembers anything between rounds. SMA-style
// algorithms need the opposite — each worker node holds a REPLICA
// (SessionState, cluster/session/stateful_task.h) that persists across
// the rounds of one query. A SessionHandle manages a group of such
// replicas ("nodes"):
//
//   OpenSession   one replica per open request, built by the registered
//                 kind's open function (ExecutionBackend::OpenSession)
//   Step          scatter: node i consumes requests[i] against its
//                 replica and replies bytes. Steps must only READ the
//                 replica.
//   Broadcast     every node applies the SAME payload as a deterministic
//                 state transition. The handle records broadcasts in a
//                 replay log: replica state is always
//                 fold(step, open(open_request), broadcasts), which is
//                 what makes a lost remote replica recoverable — after a
//                 worker reconnect the session is re-opened and the log
//                 replayed (rpc_session.h).
//   Close         ends the session on every node (idempotent; also run
//                 by the destructor).
//
// Hosting follows the backend: the in-process backend keeps the replicas
// in the master process and runs steps through its own RunRound
// (local_session.h) — state cannot be lost, so no replay is ever needed.
// RpcBackend keeps the replicas in remote mpqopt_worker processes
// (rpc_session.h) and recovers them by reconnect + replay.
//
// Accounting is shared with the stateless rounds (AccountRound): a
// Step/Broadcast round reports request+response payload bytes, two
// messages per node, per-node compute seconds and the measured wall
// time — so SMA's reported bytes and rounds are identical on every
// backend (asserted by tests/sma_test.cc). Like a backend, a handle does
// not model time: SMA prices each round from its own NetworkModel.
//
// Thread safety: one handle is driven by one master thread; concurrent
// calls on the SAME handle are not supported. Different handles on one
// backend may run concurrently.

#ifndef MPQOPT_CLUSTER_SESSION_SESSION_H_
#define MPQOPT_CLUSTER_SESSION_SESSION_H_

#include <cstdint>
#include <vector>

#include "cluster/backend.h"
#include "common/status.h"

namespace mpqopt {

class SessionHandle {
 public:
  virtual ~SessionHandle() = default;

  /// Number of replicas in the session group.
  virtual size_t num_nodes() const = 0;

  /// One scatter round: node i consumes requests[i] (a pure read of its
  /// replica) and replies bytes. requests.size() must equal num_nodes().
  virtual StatusOr<RoundResult> Step(
      const std::vector<std::vector<uint8_t>>& requests) = 0;

  /// One broadcast round: every node applies `payload` as a
  /// deterministic state transition (responses are typically empty).
  /// Recorded in the replay log on recovery-capable implementations.
  virtual StatusOr<RoundResult> Broadcast(
      const std::vector<uint8_t>& payload) = 0;

  /// Ends the session on every node. Idempotent; errors after a node is
  /// already gone are swallowed (closing is advisory — worker-side TTL
  /// GC reclaims abandoned replicas regardless).
  virtual void Close() = 0;
};

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SESSION_SESSION_H_
