// Copyright 2026 mpqopt authors.
//
// OptimizerService — the serving layer on top of the execution stack.
//
// The benchmark harness runs one MpqOptimizer at a time; a production
// optimizer endpoint faces many concurrent Optimize(query) calls. This
// service multiplexes the worker tasks of all in-flight queries onto ONE
// shared ExecutionBackend (by default DefaultBackend(), the process-wide
// pool, which interleaves concurrently submitted rounds fairly — a large
// query cannot starve small ones), and keeps per-query and aggregate
// throughput statistics. The backend only hosts the tasks: each query's
// modeled cluster time comes from the NetworkModel in its MpqOptions.
//
// With the plan cache enabled (ServiceOptions::enable_plan_cache), the
// service fingerprints every query (plancache/fingerprint.h) and consults
// a sharded LRU (plancache/plan_cache.h) before submitting any worker
// round: a hit skips the whole scatter/gather round trip on every
// backend, and concurrent misses on the same fingerprint are
// single-flighted — one master optimizes, the rest wait and reuse.
//
// Thread safety: Optimize() may be called from any number of threads
// concurrently. OptimizeBatch() is a convenience driver that runs a whole
// batch through a bounded dispatcher pool and reports batch wall time,
// per-query latency, and queries/second.

#ifndef MPQOPT_SERVICE_OPTIMIZER_SERVICE_H_
#define MPQOPT_SERVICE_OPTIMIZER_SERVICE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/backend.h"
#include "mpq/mpq.h"
#include "obs/trace.h"
#include "plancache/plan_cache.h"
#include "service/admission/admission_controller.h"

namespace mpqopt {

/// Configuration of the service runtime.
struct ServiceOptions {
  /// Shared worker-execution runtime. Null (default) runs on
  /// DefaultBackend(), the process-wide in-process pool; build any other
  /// (e.g. rpc) with MakeBackend.
  std::shared_ptr<ExecutionBackend> backend;
  /// Maximum number of query masters driven concurrently by
  /// OptimizeBatch (the per-query master work: serialize, submit round,
  /// final prune). Optimize() callers bring their own threads and are
  /// not bounded by this.
  int dispatcher_threads = 4;
  /// Memoized serving: fingerprint each query and serve repeats from the
  /// plan cache instead of re-optimizing (CLI: --plan-cache).
  bool enable_plan_cache = false;
  /// Byte budget of the plan cache (CLI: --plan-cache-mb).
  size_t plan_cache_bytes = size_t{64} << 20;
  /// Cached-plan lifetime; <= 0 caches forever (CLI: --plan-cache-ttl).
  double plan_cache_ttl_seconds = 0;
  /// Admission control in front of the backend (CLI: --admission): an
  /// over-quota tenant or a full priority queue is rejected with a
  /// deterministic error before any worker round runs. Off by default —
  /// every request is admitted, exactly the pre-admission behavior.
  bool enable_admission = false;
  /// Quota / queue knobs when admission is enabled (CLI: --tenant-rate,
  /// --tenant-burst, --queue-depth).
  AdmissionOptions admission;
  /// Query-lifecycle tracing (CLI: --trace-out, --slow-query-ms). Null
  /// (default) disables tracing entirely: every Span in the serving
  /// stack stays inert and no per-query state is allocated. Non-null,
  /// each Optimize() call records a span tree — admission, cache probe,
  /// round phases, worker-side timings over rpc — into the collector.
  /// Not owned; must outlive the service.
  obs::TraceCollector* trace_collector = nullptr;
};

/// Aggregate counters since service construction.
struct ServiceStats {
  uint64_t queries_completed = 0;
  uint64_t queries_failed = 0;
  /// Sum of per-query service latencies (seconds).
  double total_latency_seconds = 0;
  /// Sum of per-query modeled cluster times (seconds).
  double total_simulated_seconds = 0;
  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;
  /// Queries served from the plan cache (no worker round ran).
  uint64_t cache_hits = 0;
  /// Queries that ran a full optimization with the cache enabled. A
  /// single-flight waiter counts toward hits, not misses — exactly one
  /// miss is recorded per computed fingerprint.
  uint64_t cache_misses = 0;
  /// Entries evicted from the plan cache for any reason (the sum of the
  /// three per-cause counters below).
  uint64_t cache_evictions = 0;
  /// Evictions split by cause: LRU byte-budget pressure, TTL expiry, and
  /// statistics invalidation (epoch bump, InvalidateWhere/Table, Clear).
  uint64_t cache_evictions_capacity = 0;
  uint64_t cache_evictions_ttl = 0;
  uint64_t cache_evictions_invalidated = 0;

  /// Remote-worker supervision (zero/empty on the in-process backend; see
  /// cluster/supervisor/worker_supervisor.h). Redials attempted and
  /// succeeded across all workers:
  uint64_t worker_reconnect_attempts = 0;
  uint64_t worker_reconnects = 0;
  /// Tasks re-scattered after a worker failure, and rounds that needed
  /// at least one recovery pass:
  uint64_t tasks_rescattered = 0;
  uint64_t rounds_recovered = 0;
  /// Stateful-session activity on the shared backend (cluster/session/):
  /// session groups opened, stateful rounds run, replicas rebuilt by
  /// re-open + replay, and sessions that ended in an unrecoverable
  /// error. All-zero unless session-based work (e.g. SMA) ran.
  uint64_t sessions_opened = 0;
  uint64_t session_rounds = 0;
  uint64_t sessions_recovered = 0;
  uint64_t sessions_failed = 0;
  /// Admission outcomes (service/admission/; all-zero with admission
  /// off): requests granted a slot, rejected over quota, shed at a full
  /// class queue, and expired waiting. The gauges count requests queued
  /// or running at snapshot time.
  uint64_t admitted = 0;
  uint64_t rejected_quota = 0;
  uint64_t rejected_queue = 0;
  uint64_t admission_timed_out = 0;
  size_t admission_queued_now = 0;
  size_t admission_running_now = 0;
  /// Rpc scatter frames: kBatchTask envelopes sent and the task requests
  /// that rode in them (zero on the in-process backend; see
  /// BackendHealth).
  uint64_t scatter_batches = 0;
  uint64_t tasks_coalesced = 0;
  /// Per-worker endpoint, health state, and failure counters.
  std::vector<WorkerHealthSnapshot> workers;
};

/// Outcome of one OptimizeBatch call.
struct BatchReport {
  /// Per-query results, in input order.
  std::vector<StatusOr<MpqResult>> results;
  /// Measured service latency per query (seconds), in input order.
  std::vector<double> latency_seconds;
  /// Wall-clock seconds for the whole batch.
  double wall_seconds = 0;
  /// Completed queries per wall-clock second.
  double queries_per_second = 0;
};

/// Serves many concurrent optimizations over one shared backend.
class OptimizerService {
 public:
  explicit OptimizerService(ServiceOptions options);

  /// Optimizes one query with the given per-query options; the options'
  /// backend field is overridden with the service's shared backend.
  /// Thread-safe; concurrent calls share the worker pool. Runs as the
  /// default tenant at interactive priority — with default quotas this
  /// admits unconditionally, so existing callers see no change.
  StatusOr<MpqResult> Optimize(const Query& query, const MpqOptions& options);

  /// Same, on behalf of `ctx`'s tenant and priority class. With
  /// admission enabled the request passes the quota and (possibly) the
  /// priority queue first; over-quota and shed requests fail with
  /// ResourceExhausted, queue-expired ones with DeadlineExceeded, all
  /// before any backend round runs.
  StatusOr<MpqResult> Optimize(const Query& query, const MpqOptions& options,
                               const RequestContext& ctx);

  /// Optimizes every query with the same shared option set, concurrently
  /// on up to dispatcher_threads query masters. Every query runs on
  /// behalf of `ctx` (default: default tenant, interactive).
  BatchReport OptimizeBatch(const std::vector<Query>& queries,
                            const MpqOptions& options,
                            const RequestContext& ctx = RequestContext());

  /// Aggregate counters since construction (thread-safe snapshot).
  ServiceStats stats() const;

  /// Always OK: the service always has a backend. Kept because existing
  /// callers (perfbench/setup.cc) check it.
  Status init_status() const { return Status::OK(); }

  const ExecutionBackend& backend() const { return *backend_; }
  std::shared_ptr<ExecutionBackend> shared_backend() const {
    return backend_;
  }

  /// The plan cache, or null when disabled. Callers invalidate through
  /// it directly on catalog changes, e.g.
  /// `service.plan_cache()->InvalidateTable("R3")` after a cardinality
  /// refresh, or `BumpStatisticsEpoch()` after a bulk statistics reload.
  PlanCache* plan_cache() const { return cache_.get(); }

  /// The admission controller, or null when disabled. Callers set
  /// per-tenant quotas through it, e.g.
  /// `service.admission()->SetQuota("analytics", 5, 20)`.
  AdmissionController* admission() const { return admission_.get(); }

 private:
  /// Optimize() body; runs inside the query's trace context (when
  /// tracing is enabled) so every span below lands in the trace.
  StatusOr<MpqResult> OptimizeTraced(const Query& query,
                                     const MpqOptions& options,
                                     const RequestContext& ctx);
  /// One full (uncached) optimization on the shared backend.
  StatusOr<MpqResult> RunOptimizer(const Query& query,
                                   const MpqOptions& options);
  /// Cache-aware path: probe, single-flight the miss, insert on success.
  StatusOr<MpqResult> OptimizeThroughCache(const Query& query,
                                           const MpqOptions& options,
                                           bool* cache_hit);

  ServiceOptions options_;
  std::shared_ptr<ExecutionBackend> backend_;
  std::unique_ptr<PlanCache> cache_;
  std::unique_ptr<AdmissionController> admission_;
  SingleFlight flights_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
};

}  // namespace mpqopt

#endif  // MPQOPT_SERVICE_OPTIMIZER_SERVICE_H_
