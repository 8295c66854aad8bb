// Copyright 2026 mpqopt authors.
//
// Task-kind registry — names the worker entry points that can cross a
// real network.
//
// The in-process backend executes arbitrary WorkerTask std::functions, but a
// remote worker cannot receive a closure: RpcBackend ships each request
// tagged with a registered TASK KIND, and the worker server maps the tag
// back to the matching entry point. Only self-contained functions from
// request bytes to response bytes can be registered — exactly the wire
// contract of MpqOptimizer::WorkerMain, the one optimizer kind. (SMA's
// per-node tasks close over the node's memo replica and are deliberately
// NOT registrable here; stateful workers have their own registry of
// open/step pairs and a session protocol — see
// cluster/session/stateful_task.h.)
//
// The registry also carries tiny diagnostic kinds (echo, fail,
// sleep-echo, ping) so the cross-backend conformance suite and the
// worker-crash tests can drive a remote worker without involving an
// optimizer; ping doubles as the health-probe frame the supervision
// subsystem (cluster/supervisor/) sends to verify a redialed worker
// actually serves before marking it healthy again.
//
// Tracing adds no kind and no bytes: a traced round sends exactly the
// untraced frames. The worker times every frame it serves (the reply
// header's seconds) and every batch subtask (its slot's seconds), and the
// master builds the frame's worker.serve and worker.compute spans from
// those timings alone (cluster/rpc_backend.cc).

#ifndef MPQOPT_CLUSTER_TASK_REGISTRY_H_
#define MPQOPT_CLUSTER_TASK_REGISTRY_H_

#include <cstdint>
#include <vector>

#include "cluster/backend.h"
#include "common/status.h"
#include "net/frame_transport.h"

namespace mpqopt {

/// Wire tag of one registered worker entry point. Values are part of the
/// RPC protocol — append new kinds, never renumber.
enum class RpcTaskKind : uint8_t {
  kUnknownTask = 0,    ///< unregistered function — not shippable
  kMpqWorker = 1,      ///< MpqOptimizer::WorkerMain
  // 2 and 8 are retired and must never be reused: 2 named a
  // heterogeneous-MPQ worker, 8 the kTracedTask envelope that once carried
  // a trace id and shipped worker spans home. A worker answers either like
  // any unknown tag, with a task error, so an old master gets a clean
  // error, not another task's bytes.
  kEchoTask = 3,       ///< diagnostic: response = request
  kFailTask = 4,       ///< diagnostic: fails with the request as message
  kSleepEchoTask = 5,  ///< diagnostic: u32 ms sleep, then echo the rest
  kPingTask = 6,       ///< health probe: echoes the nonce payload
  kBatchTask = 7,      ///< envelope: a worker's N subtask requests
  kStatsPollTask = 9,  ///< telemetry: worker's MetricsRegistry sample
};

/// Human-readable kind name for error messages.
const char* RpcTaskKindName(RpcTaskKind kind);

/// Diagnostic entry point: returns the request unchanged.
StatusOr<std::vector<uint8_t>> EchoTaskMain(const std::vector<uint8_t>& request);

/// Diagnostic entry point: returns Corruption with the request bytes
/// interpreted as the error message.
StatusOr<std::vector<uint8_t>> FailTaskMain(const std::vector<uint8_t>& request);

/// Diagnostic entry point: request = u32 sleep milliseconds + body;
/// sleeps, then echoes the body. Used to hold a remote worker busy while
/// crash handling is exercised.
StatusOr<std::vector<uint8_t>> SleepEchoTaskMain(
    const std::vector<uint8_t>& request);

/// Health-probe entry point: echoes the request nonce. Semantically a
/// liveness check, not a computation — the supervisor sends one after
/// every (re)dial and requires the nonce back before trusting the
/// connection with real round traffic.
StatusOr<std::vector<uint8_t>> PingTaskMain(
    const std::vector<uint8_t>& request);

/// Scatter envelope: one frame carrying a worker's whole share of a
/// round — N independent subtask requests, executed in order, each timed
/// individually. RpcBackend sends every multi-task share this way (a
/// lone task ships plain).
///
///   request   u32 count, then per subtask: u8 kind, u32 len, len bytes
///   response  per subtask: u8 ok, f64 measured compute seconds,
///             u32 len, then len bytes (response when ok, status text
///             when not)
///
/// A failed subtask does NOT fail the envelope — its slot reports ok=0
/// and the other subtasks still run, so the master can split one frame's
/// outcomes exactly like N separate exchanges. Nested batches and
/// unknown subtask kinds are per-slot errors. A pure function of its
/// request bytes like every other registered entry point, so each
/// subtask's response is byte-identical to running it alone.
StatusOr<std::vector<uint8_t>> BatchTaskMain(
    const std::vector<uint8_t>& request);

/// One subtask's outcome in a kBatchTask reply: the worker-measured
/// compute seconds and a view of the slot's bytes inside the reply (the
/// response when `ok`, the status text when not).
struct BatchSlot {
  bool ok = false;
  double compute_seconds = 0;
  ConstSpan body;
};

/// The master's decoder of a BatchTaskMain reply to a `count`-subtask
/// request: fills `slots` with `count` views into `response`. A reply
/// that is truncated, has a slot longer than the bytes left, an ok byte
/// other than 0 or 1, or bytes after the last slot is kCorruption, and
/// no slot of it may be trusted. A slot with ok=0 is a subtask failure,
/// not a decode error.
Status ParseBatchTaskResponse(const std::vector<uint8_t>& response,
                              size_t count, std::vector<BatchSlot>* slots);

/// Telemetry poll entry point: ignores the (empty) request and returns
/// this process's global MetricsRegistry serialized with
/// obs::SerializeRegistrySample. The master's telemetry server sends one
/// per worker on a /metrics scrape (TTL-cached) and re-exports the
/// series under a worker="<addr>" label. Reading the registry is
/// relaxed-atomic sums — polling observes, never perturbs.
StatusOr<std::vector<uint8_t>> StatsPollTaskMain(
    const std::vector<uint8_t>& request);

/// Maps a WorkerTask back to its registered kind, or kUnknownTask when
/// the task wraps anything but a registered entry-point function pointer.
RpcTaskKind ResolveTaskKind(const WorkerTask& task);

/// Maps a wire tag to the entry point it names; null for unknown tags.
WorkerTask TaskForKind(RpcTaskKind kind);

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_TASK_REGISTRY_H_
