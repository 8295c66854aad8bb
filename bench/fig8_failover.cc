// Copyright 2026 mpqopt authors.
//
// Figure 8 (repo extension, not in the paper): serving throughput of the
// OptimizerService over the rpc backend under worker churn.
//
// The supervision subsystem (src/cluster/supervisor/) turns a worker
// crash from a round-failing event into a recovery event: the failed
// worker's tasks re-scatter across the survivors, the endpoint is
// redialed with backoff, and a restarted worker rejoins the pool. This
// bench measures what that costs: one batch on a stable pool (baseline),
// one batch during which a worker is SIGKILLed mid-flight and restarted
// shortly after (churn). Both batches must complete every query; the
// churn column reports the recovery counters alongside the throughput.
//
// Workers are self-hosted on loopback subprocesses like the RPC tests
// (set MPQOPT_WORKER_BIN or run from the build directory).
//
// Knobs: MPQOPT_SERVICE_TABLES (default 11), MPQOPT_SERVICE_WORKERS (8),
// MPQOPT_SERVICE_TOTAL_QUERIES (60), MPQOPT_SERVICE_CONCURRENCY (4),
// MPQOPT_RPC_WORKERS (4), MPQOPT_KILL_AFTER_MS (30),
// MPQOPT_RESTART_AFTER_MS (80), and the shared MPQOPT_SEED / network
// knobs of bench_common.h.

#include <chrono>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "service/optimizer_service.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

struct ChurnResult {
  BatchReport report;
  ServiceStats stats;
};

ChurnResult RunBatch(RpcWorkerFarm* farm, const std::vector<Query>& queries,
                     const MpqOptions& opts, int concurrency,
                     bool inject_churn, int kill_after_ms,
                     int restart_after_ms) {
  BackendOptions backend_opts;
  backend_opts.workers_addr = farm->workers_addr();
  backend_opts.supervision.backoff_initial_ms = 20;
  // A budget generous enough to still be redialing when the restarted
  // worker comes back, so the reconnect path shows in the counters.
  backend_opts.supervision.max_redials = 6;
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, backend_opts);
  MPQOPT_CHECK(backend.ok());

  ServiceOptions service_opts;
  service_opts.backend = std::move(backend).value();
  service_opts.dispatcher_threads = concurrency;
  OptimizerService service(service_opts);

  std::thread churn;
  if (inject_churn) {
    churn = std::thread([farm, kill_after_ms, restart_after_ms]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
      farm->Kill(0);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(restart_after_ms - kill_after_ms));
      farm->Restart(0);
    });
  }
  ChurnResult result;
  result.report = service.OptimizeBatch(queries, opts);
  if (churn.joinable()) churn.join();
  result.stats = service.stats();
  return result;
}

int Main() {
  const BenchConfig config = BenchConfig::FromEnv();
  const int tables = static_cast<int>(EnvInt("MPQOPT_SERVICE_TABLES", 11));
  const uint64_t workers =
      static_cast<uint64_t>(EnvInt("MPQOPT_SERVICE_WORKERS", 8));
  const int total =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_TOTAL_QUERIES", 60));
  const int concurrency =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_CONCURRENCY", 4));
  const int rpc_workers = static_cast<int>(EnvInt("MPQOPT_RPC_WORKERS", 4));
  const int kill_after_ms =
      static_cast<int>(EnvInt("MPQOPT_KILL_AFTER_MS", 30));
  const int restart_after_ms =
      static_cast<int>(EnvInt("MPQOPT_RESTART_AFTER_MS", 80));

  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = workers;
  opts.network = NetworkFromEnv();
  const std::vector<Query> queries =
      MakeQueries(tables, total, JoinGraphShape::kStar, config.seed);

  std::printf("# fig8: rpc serving throughput under worker churn\n");
  std::printf("# %d loopback workers, %d queries x %d tables, "
              "concurrency %d; churn: kill worker 0 at %d ms, restart at "
              "%d ms\n",
              rpc_workers, total, tables, concurrency, kill_after_ms,
              restart_after_ms);
  std::printf("%-10s %10s %10s %12s %12s %12s\n", "mode", "wall_s", "qps",
              "completed", "rescattered", "reconnects");

  for (const bool churn : {false, true}) {
    RpcWorkerFarm farm;
    farm.Start(rpc_workers);
    const ChurnResult r = RunBatch(&farm, queries, opts, concurrency, churn,
                                   kill_after_ms, restart_after_ms);
    size_t completed = 0;
    for (const StatusOr<MpqResult>& q : r.report.results) {
      if (q.ok()) ++completed;
    }
    std::printf("%-10s %10.3f %10.1f %9zu/%-2d %12llu %12llu\n",
                churn ? "churn" : "stable", r.report.wall_seconds,
                r.report.queries_per_second, completed, total,
                static_cast<unsigned long long>(
                    r.stats.backend.tasks_rescattered),
                static_cast<unsigned long long>(r.stats.backend.reconnects));
    if (completed != static_cast<size_t>(total)) {
      std::printf("FAIL: %zu/%d queries completed under %s\n", completed,
                  total, churn ? "churn" : "stable pool");
      return 1;
    }
  }
  std::printf("# every query completed in both modes; churn cost is the "
              "qps delta\n");
  return 0;
}

}  // namespace
}  // namespace mpqopt

int main() { return mpqopt::Main(); }
