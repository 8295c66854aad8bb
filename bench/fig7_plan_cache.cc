// Copyright 2026 mpqopt authors.
//
// Figure 7 (repo extension, not in the paper): serving throughput of the
// OptimizerService with and without the plan cache, as a function of how
// repetitive the workload is.
//
// A production optimizer endpoint sees the same query shapes over and
// over; the plan cache (src/plancache/) fingerprints each query and
// serves repeats from a sharded LRU, skipping the whole scatter/gather
// round. This bench sweeps the repeated-query fraction (0%, 50%, 90%)
// and measures cache-off vs. cache-on throughput on the async backend,
// plus the rpc backend when worker servers are available (self-hosted on
// loopback subprocesses, like the RPC tests; set MPQOPT_WORKER_BIN or
// run from the build directory).
//
// Expected shape: at 0% repetition the cache is pure (tiny) overhead; at
// 90% it serves nine of ten queries from memory and throughput grows by
// multiples (the PR's acceptance bar is >= 2x at 90% on async).
//
// Knobs: MPQOPT_SERVICE_TABLES (default 11), MPQOPT_SERVICE_WORKERS (16),
// MPQOPT_SERVICE_TOTAL_QUERIES (60), MPQOPT_POOL_THREADS (4),
// MPQOPT_SERVICE_CONCURRENCY (8), MPQOPT_RPC_WORKERS (2; 0 disables the
// rpc sweep), and the shared MPQOPT_SEED / network knobs.

#include <unistd.h>

#include <algorithm>
#include <memory>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "service/optimizer_service.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

/// `total` queries of which ~`repeat_fraction` are repeats of a small
/// distinct set, interleaved pseudo-randomly (deterministic in the seed)
/// the way arrivals from many clients would be.
std::vector<Query> MakeRepeatedWorkload(int tables, int total,
                                        double repeat_fraction,
                                        uint64_t seed) {
  const int distinct =
      std::max(1, static_cast<int>(total * (1.0 - repeat_fraction) + 0.5));
  const std::vector<Query> unique =
      MakeQueries(tables, distinct, JoinGraphShape::kStar, seed);
  std::vector<Query> workload;
  workload.reserve(static_cast<size_t>(total));
  // First pass guarantees every distinct query appears once...
  for (const Query& q : unique) workload.push_back(q);
  // ...then repeats fill the rest, drawn uniformly.
  Rng rng(seed ^ 0xf1677ULL);
  while (workload.size() < static_cast<size_t>(total)) {
    workload.push_back(
        unique[static_cast<size_t>(rng.UniformInt(0, distinct - 1))]);
  }
  // Shuffle so repeats interleave with first sights (Fisher-Yates).
  for (size_t i = workload.size() - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap(workload[i], workload[j]);
  }
  return workload;
}

struct ModeResult {
  double wall_seconds = 0;
  double qps = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

ModeResult RunMode(std::shared_ptr<ExecutionBackend> backend,
                   const std::vector<Query>& workload,
                   const MpqOptions& opts, bool cache_on, int concurrency,
                   int repetitions) {
  std::vector<double> walls;
  ModeResult mode;
  for (int rep = 0; rep < repetitions; ++rep) {
    // A fresh service per repetition: each batch starts cache-cold, so
    // the measured hit rate is the workload's repetition rate, not an
    // artifact of earlier batches.
    ServiceOptions service_opts;
    service_opts.backend = backend;
    service_opts.dispatcher_threads = concurrency;
    service_opts.enable_plan_cache = cache_on;
    OptimizerService service(service_opts);
    const BatchReport report = service.OptimizeBatch(workload, opts);
    for (const StatusOr<MpqResult>& r : report.results) {
      MPQOPT_CHECK(r.ok());
    }
    walls.push_back(report.wall_seconds);
    const ServiceStats stats = service.stats();
    mode.hits = stats.cache_hits;
    mode.misses = stats.cache_misses;
  }
  mode.wall_seconds = Median(walls);
  mode.qps = mode.wall_seconds > 0
                 ? static_cast<double>(workload.size()) / mode.wall_seconds
                 : 0;
  return mode;
}

void SweepBackend(const char* label, std::shared_ptr<ExecutionBackend> backend,
                  const MpqOptions& opts, int tables, int total_queries,
                  int concurrency, int repetitions, uint64_t seed) {
  std::printf("--- %s backend ---\n", label);
  TablePrinter table({"repeat %", "off (ms)", "off q/s", "on (ms)", "on q/s",
                      "hits/misses", "speedup"});
  for (double repeat : {0.0, 0.5, 0.9}) {
    const std::vector<Query> workload =
        MakeRepeatedWorkload(tables, total_queries, repeat, seed);
    const ModeResult off = RunMode(backend, workload, opts, /*cache_on=*/false,
                                   concurrency, repetitions);
    const ModeResult on = RunMode(backend, workload, opts, /*cache_on=*/true,
                                  concurrency, repetitions);
    const double speedup =
        on.wall_seconds > 0 ? off.wall_seconds / on.wall_seconds : 0;
    table.AddRow({TablePrinter::FormatDouble(repeat * 100, 0),
                  TablePrinter::FormatMillis(off.wall_seconds),
                  TablePrinter::FormatDouble(off.qps, 1),
                  TablePrinter::FormatMillis(on.wall_seconds),
                  TablePrinter::FormatDouble(on.qps, 1),
                  std::to_string(on.hits) + "/" + std::to_string(on.misses),
                  TablePrinter::FormatDouble(speedup, 2)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace mpqopt

int main() {
  using namespace mpqopt;
  const BenchConfig config = BenchConfig::FromEnv();
  const int tables = static_cast<int>(EnvInt("MPQOPT_SERVICE_TABLES", 11));
  const uint64_t workers =
      static_cast<uint64_t>(EnvInt("MPQOPT_SERVICE_WORKERS", 16));
  const int total_queries =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_TOTAL_QUERIES", 60));
  const int pool_threads =
      static_cast<int>(EnvInt("MPQOPT_POOL_THREADS", 4));
  const int concurrency =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_CONCURRENCY", 8));
  const int repetitions =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_REPETITIONS", 3));
  const int rpc_workers =
      static_cast<int>(EnvInt("MPQOPT_RPC_WORKERS", 2));

  PrintHeader("Figure 7 — plan-cache throughput vs. workload repetition");
  std::printf(
      "%d-table star queries, %llu workers each, %d queries per batch,\n"
      "%d dispatchers over %d pool threads; cache: 64 MB, no TTL\n\n",
      tables, static_cast<unsigned long long>(workers), total_queries,
      concurrency, pool_threads);

  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = UsableWorkers(tables, PlanSpace::kLinear, workers);
  opts.network = NetworkFromEnv();

  BackendOptions pool;
  pool.max_threads = pool_threads;
  SweepBackend("async", MakeBackend(BackendKind::kAsyncBatch, pool).value(),
               opts, tables, total_queries, concurrency, repetitions,
               config.seed);

  if (rpc_workers > 0 && ::access(WorkerBinaryPath(), X_OK) == 0) {
    RpcWorkerFarm farm;
    farm.Start(rpc_workers);
    BackendOptions backend_opts;
    backend_opts.workers_addr = farm.workers_addr();
    StatusOr<std::shared_ptr<ExecutionBackend>> rpc =
        MakeBackend(BackendKind::kRpc, backend_opts);
    MPQOPT_CHECK(rpc.ok());
    SweepBackend("rpc (loopback)", rpc.value(), opts, tables, total_queries,
                 concurrency, repetitions, config.seed);
  } else {
    std::printf(
        "--- rpc backend skipped (worker binary '%s' not runnable; set\n"
        "MPQOPT_WORKER_BIN or run from the build directory;\n"
        "MPQOPT_RPC_WORKERS=0 also disables) ---\n",
        WorkerBinaryPath());
  }

  std::printf(
      "Expected shape: cache-off is flat in the repeat fraction; cache-on\n"
      "matches it at 0%% and pulls away as repetition grows — at 90%% nine\n"
      "of ten queries skip the scatter/gather round entirely. The effect\n"
      "compounds on rpc, where a skipped round also skips real sockets.\n");
  return 0;
}
