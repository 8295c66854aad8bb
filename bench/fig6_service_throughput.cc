// Copyright 2026 mpqopt authors.
//
// Figure 6 (repo extension, not in the paper): serving throughput of the
// OptimizerService under concurrent query load.
//
// The paper benchmarks one query at a time; a production optimizer
// endpoint faces many concurrent Optimize() calls. This bench sweeps the
// number of in-flight queries over one shared persistent pool
// (AsyncBatchBackend): rounds of concurrent queries are pipelined
// through the same threads and interleaved fairly, and each dispatcher
// helps drain its own round. Expected shape: throughput rises with
// concurrency until the pool and the dispatchers together fill the
// host's cores, then flattens.
//
// Knobs: MPQOPT_SERVICE_TABLES (default 10), MPQOPT_SERVICE_WORKERS (16),
// MPQOPT_SERVICE_TOTAL_QUERIES (48), MPQOPT_POOL_THREADS (4), and the
// shared MPQOPT_SEED / network knobs of bench_common.h.

#include "bench/bench_common.h"
#include "service/optimizer_service.h"

namespace mpqopt {
namespace {

struct PointResult {
  double wall_seconds = 0;
  double qps = 0;
};

PointResult RunPoint(const std::vector<Query>& queries,
                     const MpqOptions& opts, int concurrency,
                     int pool_threads, int repetitions) {
  BackendOptions pool;
  pool.max_threads = pool_threads;
  ServiceOptions service_opts;
  service_opts.backend = MakeBackend(BackendKind::kAsyncBatch, pool).value();
  service_opts.dispatcher_threads = concurrency;
  OptimizerService service(service_opts);

  // Median over repetitions — single-shot wall times are noisy on busy
  // hosts, and the service (with its long-lived pool) is exactly the
  // steady-state scenario the repeated batches model.
  std::vector<double> walls;
  for (int rep = 0; rep < repetitions; ++rep) {
    const BatchReport report = service.OptimizeBatch(queries, opts);
    for (const StatusOr<MpqResult>& r : report.results) {
      MPQOPT_CHECK(r.ok());
    }
    walls.push_back(report.wall_seconds);
  }
  PointResult result;
  result.wall_seconds = Median(walls);
  result.qps = result.wall_seconds > 0
                   ? static_cast<double>(queries.size()) / result.wall_seconds
                   : 0;
  return result;
}

}  // namespace
}  // namespace mpqopt

int main(int argc, char** argv) {
  using namespace mpqopt;
  const std::string json_path = BenchJsonWriter::ParseFlag(&argc, argv);
  BenchJsonWriter json;
  const BenchConfig config = BenchConfig::FromEnv();
  const int tables =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_TABLES", 10));
  const uint64_t workers = static_cast<uint64_t>(
      EnvInt("MPQOPT_SERVICE_WORKERS", 16));
  const int total_queries =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_TOTAL_QUERIES", 48));
  const int pool_threads =
      static_cast<int>(EnvInt("MPQOPT_POOL_THREADS", 4));

  PrintHeader("Figure 6 — service throughput under concurrent queries");
  std::printf(
      "%d-table star queries, %llu workers each, %d queries per point,\n"
      "%d pool threads\n\n",
      tables, static_cast<unsigned long long>(workers), total_queries,
      pool_threads);

  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = UsableWorkers(tables, PlanSpace::kLinear, workers);
  opts.network = NetworkFromEnv();

  const std::vector<Query> queries =
      MakeQueries(tables, total_queries, JoinGraphShape::kStar, config.seed);

  TablePrinter table({"concurrency", "batch (ms)", "q/s"});
  const int repetitions =
      static_cast<int>(EnvInt("MPQOPT_SERVICE_REPETITIONS", 3));
  for (int concurrency : {1, 2, 4, 8, 16}) {
    if (concurrency > total_queries) break;
    // Warm the page cache / branch predictors once per point with a
    // throwaway pass so the timed batches pay no first-touch costs.
    RunPoint({queries[0]}, opts, 1, pool_threads, 1);

    const PointResult result =
        RunPoint(queries, opts, concurrency, pool_threads, repetitions);
    table.AddRow({std::to_string(concurrency),
                  TablePrinter::FormatMillis(result.wall_seconds),
                  TablePrinter::FormatDouble(result.qps, 1)});
    const std::string point = "concurrency=" + std::to_string(concurrency);
    json.Add("fig6_service_throughput", point + ",backend=async",
             "queries_per_second", result.qps, "q/s");
    json.Add("fig6_service_throughput", point + ",backend=async",
             "wall_time", result.wall_seconds * 1e3, "ms");
  }
  table.Print();
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  std::printf(
      "\nExpected shape: throughput rises with concurrency while the\n"
      "rounds of concurrent queries fill idle pool threads, then\n"
      "flattens once the pool and the dispatchers occupy every core.\n");
  return 0;
}
