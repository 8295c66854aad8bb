// Copyright 2026 mpqopt authors.
//
// Query-lifecycle tracing: per-query span trees recorded through RAII
// handles, exported as Chrome trace-event JSON and slow-query dumps.
//
// Model. Each traced query owns one QueryTrace — a flat vector of spans,
// each with a name, a parent index, and start/end timestamps on the
// process-wide monotonic clock. The ACTIVE trace and the innermost open
// span travel in a thread-local TraceContext: `Span s("cache.lookup")`
// reads the context, opens a child of the current span, and restores the
// context on scope exit. Threads that pick up a traced query's work
// (the async pool's threads, session lanes) adopt the submitting
// thread's context for the scope of that work via TraceContextScope.
// Spans measured elsewhere — an rpc frame from send to reply, timings a
// worker process reports — are recorded with AddCompleteSpan. Every span
// name is a string literal, so recording a span copies no string.
//
// Disabled cost. When no trace is installed (the default everywhere),
// constructing a Span is one thread-local load and one branch — no
// allocation, no atomics, no clock read. Instrumented hot paths stay
// byte- and plan-identical with tracing on or off: spans only observe.
//
// Wire propagation. None: a traced rpc round sends exactly the untraced
// frames. The worker's reply already carries its timings — the reply
// header's seconds for the whole frame, a batch slot's seconds for each
// task — and the master builds the worker spans from them under the
// rpc.exchange span of the frame (send to reply), RpcBackend for round
// frames and WorkerSupervisor::ExchangeV for session frames (one task
// each, timed by the header's seconds): one worker.serve that
// lasts the header's seconds and ends when the reply was read, and inside
// it one worker.compute per task, back to back in slot order (the order
// the worker ran them). So the exchange minus its worker.serve is the
// frame's queueing plus wire time.
//
// Collection. TraceCollector hands out trace ids, gathers finished
// traces, prints the span breakdown of queries slower than
// `slow_query_ms` to stderr as they finish, and writes everything as one
// chrome://tracing-loadable JSON array (--trace-out=).

#ifndef MPQOPT_OBS_TRACE_H_
#define MPQOPT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace mpqopt {
namespace obs {

/// "no span": the root spans of a trace have this parent.
constexpr uint32_t kNoSpan = ~uint32_t{0};

/// Nanoseconds on the process-wide monotonic clock (steady_clock,
/// re-based to the first call so values stay small).
uint64_t MonotonicNanos();

/// One recorded span. `end_ns` == 0 means still open. `name` views the
/// string literal the span was recorded with.
struct SpanRecord {
  std::string_view name;
  uint32_t parent = kNoSpan;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The span tree of one traced query. Thread-safe: pool threads and
/// session lanes record concurrently with the master thread.
class QueryTrace {
 public:
  QueryTrace(uint64_t trace_id, std::string label);
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(QueryTrace);

  uint64_t trace_id() const { return trace_id_; }
  const std::string& label() const { return label_; }

  /// Opens a span (start = now) and returns its index. `name` must be a
  /// string literal (see Span).
  uint32_t BeginSpan(const char* name, uint32_t parent);
  void EndSpan(uint32_t span);
  /// Records an already-measured span (an rpc frame's exchange and worker
  /// timings, pool thread compute) under a string-literal `name`. Returns
  /// its index.
  uint32_t AddCompleteSpan(const char* name, uint32_t parent,
                           uint64_t start_ns, uint64_t end_ns);

  /// Point-in-time copy of every span recorded so far.
  std::vector<SpanRecord> Snapshot() const;
  /// Wall time of span 0 (the root), in milliseconds; 0 if unfinished.
  double RootMillis() const;

 private:
  const uint64_t trace_id_;
  const std::string label_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// What a thread is currently tracing: the active trace (null = tracing
/// off) and the innermost open span (the parent of the next Span).
struct TraceContext {
  QueryTrace* trace = nullptr;
  uint32_t span = kNoSpan;
};

/// This thread's context (value copy; cheap).
TraceContext CurrentTraceContext();

/// Installs `ctx` as this thread's context for the scope's lifetime and
/// restores the previous context on exit. Used at the two context
/// boundaries: OptimizerService installing a fresh trace on the serving
/// thread, and pool or session-lane threads adopting the submitter's
/// context.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  /// Convenience: adopt `trace` with `parent` as the current span. A
  /// null trace installs the empty context (tracing off in this scope).
  TraceContextScope(QueryTrace* trace, uint32_t parent);
  ~TraceContextScope();
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(TraceContextScope);

 private:
  TraceContext saved_;
};

/// RAII span handle. Inert (no-op) when the thread has no active trace.
/// `name` must outlive the span (string literals only — by design, so
/// the disabled path never allocates).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(Span);

  /// The recorded span index, or kNoSpan when inert.
  uint32_t id() const { return span_; }
  QueryTrace* trace() const { return trace_; }

 private:
  QueryTrace* trace_ = nullptr;
  uint32_t span_ = kNoSpan;
  uint32_t saved_parent_ = kNoSpan;
};

/// TraceCollector configuration (CLI: --trace-out, --slow-query-ms).
struct TraceCollectorOptions {
  /// Chrome trace-event JSON output path; empty = no file (traces are
  /// still collected and slow queries still logged).
  std::string chrome_out_path;
  /// Print the full span breakdown of any query whose root span is at
  /// least this many milliseconds to stderr; <= 0 disables.
  double slow_query_ms = 0;
};

/// Collects finished traces; thread-safe.
class TraceCollector {
 public:
  explicit TraceCollector(TraceCollectorOptions options);
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(TraceCollector);

  /// Allocates a trace id and starts an (unfinished) trace.
  std::unique_ptr<QueryTrace> StartTrace(std::string label);
  /// Takes ownership of a finished trace; prints the slow-query
  /// breakdown when it crossed the threshold.
  void Collect(std::unique_ptr<QueryTrace> trace);

  size_t collected() const;

  /// Writes every collected trace as one Chrome trace-event JSON array
  /// to options.chrome_out_path (no-op OK status when the path is
  /// empty).
  Status WriteChromeTrace() const;
  Status WriteChromeTraceTo(const std::string& path) const;

  const TraceCollectorOptions& options() const { return options_; }

 private:
  TraceCollectorOptions options_;
  std::atomic<uint64_t> next_trace_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<QueryTrace>> traces_;
};

/// Human-readable span breakdown of one trace — indented tree with
/// per-span wall milliseconds. The slow-query log prints this.
std::string FormatSpanBreakdown(const QueryTrace& trace);

}  // namespace obs
}  // namespace mpqopt

#endif  // MPQOPT_OBS_TRACE_H_
