// Copyright 2026 mpqopt authors.
//
// Stateful-task registry — the session-protocol sibling of
// cluster/task_registry.h.
//
// The stateless registry names pure functions from request bytes to
// response bytes; those can be shipped to any worker because they carry
// no state. Some worker code is inherently STATEFUL: SMA's per-node memo
// replica must persist across the rounds of one query. Such code
// registers here as an (open / step) function pair over an opaque
// SessionState:
//
//   open   bytes -> state       builds a fresh replica from the session
//                               open request (deterministic)
//   step   (state, bytes) -> bytes
//                               one round's work on the replica. A step
//                               either only READS the state (a scatter
//                               computation) or applies a DETERMINISTIC
//                               state transition (a broadcast) — the
//                               distinction is drawn by the master-side
//                               SessionHandle (Step vs Broadcast), which
//                               records broadcasts in a replay log so a
//                               lost replica can be rebuilt as
//                               fold(step, open(bytes), broadcasts).
//
// The state's destructor is its teardown.
//
// As with the stateless registry, kind values are wire tags: append new
// kinds, never renumber.

#ifndef MPQOPT_CLUSTER_SESSION_STATEFUL_TASK_H_
#define MPQOPT_CLUSTER_SESSION_STATEFUL_TASK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace mpqopt {

/// Wire tag of one registered stateful entry point.
enum class StatefulTaskKind : uint8_t {
  kUnknownStateful = 0,  ///< unregistered — not shippable
  kSmaNode = 1,          ///< SMA per-node memo replica (sma/sma_node.h)
  kAccumulator = 2,      ///< diagnostic: byte buffer grown by broadcasts
};

/// Human-readable kind name for error messages.
const char* StatefulTaskKindName(StatefulTaskKind kind);

/// Opaque per-session replica state held by a worker across rounds.
class SessionState {
 public:
  virtual ~SessionState() = default;

  /// Approximate heap footprint of the replica. The worker-side byte cap
  /// (SessionStoreOptions::max_session_bytes) compares against this
  /// after open and after every step, so a runaway replica cannot pin
  /// worker memory.
  virtual size_t ApproxBytes() const = 0;
};

/// The (open / step) pair of one registered stateful kind.
struct StatefulTaskVtable {
  using OpenFn =
      StatusOr<std::unique_ptr<SessionState>> (*)(const std::vector<uint8_t>&);
  using StepFn = StatusOr<std::vector<uint8_t>> (*)(SessionState*,
                                                    const std::vector<uint8_t>&);

  OpenFn open = nullptr;
  StepFn step = nullptr;
};

/// Maps a wire tag to its registered pair; null for unknown tags.
const StatefulTaskVtable* StatefulTaskForKind(StatefulTaskKind kind);

/// Step-request op tags of the kAccumulator diagnostic kind (first byte
/// of each step request): peek returns the accumulated buffer (pure
/// read), append extends it with the request body and returns empty (the
/// broadcast-style deterministic transition). Open seeds the buffer with
/// the open request's bytes.
constexpr uint8_t kAccumulatorPeekOp = 0;
constexpr uint8_t kAccumulatorAppendOp = 1;

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_SESSION_STATEFUL_TASK_H_
