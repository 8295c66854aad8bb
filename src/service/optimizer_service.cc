// Copyright 2026 mpqopt authors.

#include "service/optimizer_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "plancache/fingerprint.h"

namespace mpqopt {

OptimizerService::OptimizerService(ServiceOptions options)
    : options_(std::move(options)),
      backend_(options_.backend != nullptr ? options_.backend
                                           : DefaultBackend()) {
  if (options_.dispatcher_threads < 1) options_.dispatcher_threads = 1;
  if (options_.enable_plan_cache) {
    PlanCacheOptions cache_opts;
    cache_opts.capacity_bytes = options_.plan_cache_bytes;
    cache_opts.ttl_seconds = options_.plan_cache_ttl_seconds;
    cache_ = std::make_unique<PlanCache>(cache_opts);
  }
  if (options_.enable_admission) {
    admission_ = std::make_unique<AdmissionController>(options_.admission);
  }
}

StatusOr<MpqResult> OptimizerService::RunOptimizer(const Query& query,
                                                   const MpqOptions& options) {
  MpqOptions effective = options;
  effective.backend = backend_;
  MpqOptimizer optimizer(std::move(effective));
  return optimizer.Optimize(query);
}

namespace {

/// Materializes a served plan into the result shape Optimize returns;
/// the arena copy happens on the caller's thread, outside any cache lock.
MpqResult ResultFromCachedPlan(const CachedPlan& plan) {
  MpqResult result;
  result.arena = plan.arena;
  result.best = plan.best;
  result.from_plan_cache = true;
  return result;
}

}  // namespace

StatusOr<MpqResult> OptimizerService::OptimizeThroughCache(
    const Query& query, const MpqOptions& options, bool* cache_hit) {
  const PlanCacheKey key = FingerprintQuery(query, options);
  // Fast path: warm hits never touch the single-flight table.
  if (std::shared_ptr<const CachedPlan> hit = cache_->Lookup(key)) {
    *cache_hit = true;
    return ResultFromCachedPlan(*hit);
  }
  const std::string flight_key(key.bytes.begin(), key.bytes.end());
  for (;;) {
    std::shared_ptr<const CachedPlan> handed;
    bool leader;
    {
      // Waiters block here until the leader's flight lands; the span
      // makes queueing behind a concurrent identical query visible.
      obs::Span flight_span("cache.flight_wait");
      leader = flights_.BeginOrWait(flight_key, &handed);
    }
    if (leader) {
      // Double-check under leadership: a previous leader may have
      // populated the cache between our probe and winning the flight,
      // in which case re-optimizing would break exactly-once. The miss
      // was already counted by the fast-path probe above.
      if (std::shared_ptr<const CachedPlan> hit =
              cache_->Lookup(key, /*count_miss=*/false)) {
        flights_.Done(flight_key, hit);
        *cache_hit = true;
        return ResultFromCachedPlan(*hit);
      }
      // Leader: this call runs the one real optimization for every
      // concurrent request on this fingerprint. Waiters get the plan
      // handed to them through the flight, so they are served even when
      // it was too large for the byte budget to retain. The epoch is
      // captured before optimizing: if statistics change mid-run, the
      // entry is inserted already-stale instead of outliving the
      // invalidation.
      const uint64_t epoch = cache_->statistics_epoch();
      StatusOr<MpqResult> result = RunOptimizer(query, options);
      std::shared_ptr<const CachedPlan> plan;
      if (result.ok()) {
        plan = cache_->Insert(key, query.TableStatistics(),
                              result.value().arena, result.value().best,
                              epoch);
      }
      flights_.Done(flight_key, std::move(plan));
      *cache_hit = false;
      return result;
    }
    if (handed != nullptr) {
      *cache_hit = true;
      return ResultFromCachedPlan(*handed);
    }
    // The leader failed: loop to become the next leader and report the
    // error (or a late success) from our own optimization run.
  }
}

StatusOr<MpqResult> OptimizerService::Optimize(const Query& query,
                                               const MpqOptions& options) {
  return Optimize(query, options, RequestContext());
}

StatusOr<MpqResult> OptimizerService::Optimize(const Query& query,
                                               const MpqOptions& options,
                                               const RequestContext& ctx) {
  obs::TraceCollector* const collector = options_.trace_collector;
  if (collector == nullptr) return OptimizeTraced(query, options, ctx);
  // Trace lifecycle wraps the whole call: the root span is the service
  // latency, and everything below — admission wait included — nests
  // under it on this thread's trace context.
  std::unique_ptr<obs::QueryTrace> trace = collector->StartTrace(
      "q" + std::to_string(query.num_tables()) + "t/" + ctx.tenant);
  StatusOr<MpqResult> result = Status::Internal("query not executed");
  {
    obs::TraceContextScope trace_scope(trace.get(), obs::kNoSpan);
    obs::Span root_span("service.optimize");
    result = OptimizeTraced(query, options, ctx);
  }
  collector->Collect(std::move(trace));
  return result;
}

StatusOr<MpqResult> OptimizerService::OptimizeTraced(
    const Query& query, const MpqOptions& options, const RequestContext& ctx) {
  // Admission is the outermost gate: a rejected request costs the
  // service nothing downstream — no fingerprinting, no cache probe, no
  // backend round. The ticket (when admission is on) holds a running
  // slot until this call returns.
  AdmissionController::Ticket ticket;
  if (admission_ != nullptr) {
    StatusOr<AdmissionController::Ticket> admitted = admission_->Admit(ctx);
    if (!admitted.ok()) {
      obs::FlightRecorder::Global().Record(
          obs::FlightEventKind::kReject, "tenant=%s: %s", ctx.tenant.c_str(),
          admitted.status().ToString().c_str());
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.queries_failed;
      return admitted.status();
    }
    obs::FlightRecorder::Global().Record(obs::FlightEventKind::kAdmit,
                                         "tenant=%s %dt query",
                                         ctx.tenant.c_str(),
                                         query.num_tables());
    ticket = std::move(admitted).value();
  }
  const auto start = std::chrono::steady_clock::now();
  bool cache_hit = false;
  StatusOr<MpqResult> result =
      cache_ != nullptr ? OptimizeThroughCache(query, options, &cache_hit)
                        : RunOptimizer(query, options);
  const auto end = std::chrono::steady_clock::now();
  const double latency = std::chrono::duration<double>(end - start).count();
  // The one authoritative service-latency distribution: statz, the CLI
  // report, and the macrobench tail records all read this histogram.
  static obs::Histogram* const latency_ms =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kServiceLatencyHistogram,
          obs::Histogram::LatencyBoundariesMs());
  latency_ms->Record(latency * 1e3);

  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (result.ok()) {
    ++stats_.queries_completed;
    stats_.total_simulated_seconds += result.value().simulated_seconds;
    stats_.network_bytes += result.value().network_bytes;
    stats_.network_messages += result.value().network_messages;
  } else {
    ++stats_.queries_failed;
  }
  if (cache_ != nullptr) {
    // Every cache-enabled query is a hit or an authoritative (leader)
    // computation; a failed leader still counts as a miss — the
    // optimizer genuinely ran.
    if (cache_hit) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
    }
  }
  stats_.total_latency_seconds += latency;
  return result;
}

BatchReport OptimizerService::OptimizeBatch(const std::vector<Query>& queries,
                                            const MpqOptions& options,
                                            const RequestContext& ctx) {
  const size_t n = queries.size();
  BatchReport report;
  report.latency_seconds.assign(n, 0.0);
  report.results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    report.results.push_back(Status::Internal("query not executed"));
  }
  if (n == 0) return report;

  const auto batch_start = std::chrono::steady_clock::now();
  std::atomic<size_t> next_query{0};
  const auto drive = [&]() {
    while (true) {
      const size_t i = next_query.fetch_add(1);
      if (i >= n) return;
      const auto start = std::chrono::steady_clock::now();
      report.results[i] = Optimize(queries[i], options, ctx);
      const auto end = std::chrono::steady_clock::now();
      report.latency_seconds[i] =
          std::chrono::duration<double>(end - start).count();
    }
  };

  const size_t dispatchers =
      std::min(n, static_cast<size_t>(options_.dispatcher_threads));
  if (dispatchers <= 1) {
    drive();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(dispatchers);
    for (size_t i = 0; i < dispatchers; ++i) pool.emplace_back(drive);
    for (std::thread& t : pool) t.join();
  }
  const auto batch_end = std::chrono::steady_clock::now();
  report.wall_seconds =
      std::chrono::duration<double>(batch_end - batch_start).count();

  size_t completed = 0;
  for (const StatusOr<MpqResult>& r : report.results) {
    if (r.ok()) ++completed;
  }
  report.queries_per_second =
      report.wall_seconds > 0
          ? static_cast<double>(completed) / report.wall_seconds
          : 0;
  return report;
}

ServiceStats OptimizerService::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  if (cache_ != nullptr) snapshot.cache = cache_->stats();
  if (admission_ != nullptr) snapshot.admission = admission_->stats();
  snapshot.backend = backend_->health();
  return snapshot;
}

}  // namespace mpqopt
