// Copyright 2026 mpqopt authors.
//
// macrobench — the deterministic macro-benchmark suite.
//
// Drives the versioned workloads in bench/workloads/*.mbw (see
// src/workload/workload_spec.h for the format) through the full serving
// stack — OptimizerService with the plan cache on, SMA queries through
// the session layer — on both execution backends: the in-process async
// pool, and rpc self-hosted on loopback mpqopt_worker subprocesses
// (set MPQOPT_WORKER_BIN or run from the build directory; the rpc sweep
// is skipped with a notice when the worker binary is not runnable).
//
// Unlike the figure benches, which sweep one axis of synthetic queries,
// this suite measures the system on something workload-shaped: fixed
// catalogs, join hypergraphs beyond star/chain (snowflake, grid, clique,
// multi-condition edges, bushy spaces), per-query option deltas, and an
// arrival schedule whose repetition drives real plan-cache hit rates and
// session replica reuse. Reported per (workload, backend): latency
// percentiles (p50/p95/p99), throughput, cache hit rate, and session
// counters; every backend's per-arrival plan choices are
// hash-compared and the run FAILS if any backend ever picks a
// different plan — the cross-backend determinism contract, enforced on
// the real workload mix.
//
// Flags:
//   --json=<path>        machine-readable records (BenchJsonWriter
//                        schema, see bench/bench_common.h); CI uploads
//                        BENCH_macro.json per push next to
//                        BENCH_micro.json
//   --smoke              shortened schedule (each entry capped at 2
//                        arrivals) — the CI configuration
//   --workloads=<dir>    directory of .mbw files (default: the
//                        checked-in bench/workloads/, baked in at
//                        compile time; MPQOPT_WORKLOAD_DIR overrides)
//   --backends=<csv>     subset of async,rpc (default both)
//   --trace-out=<path>   per-query span traces as Chrome trace-event
//                        JSON (also enables the admission layer with
//                        effectively unlimited slots, so the traces
//                        show the full front door; CI validates the
//                        file with tools/check_trace.py)
//
// Knobs: MPQOPT_RPC_WORKERS (default 2 worker processes; 0 disables the
// rpc sweep) and MPQOPT_POOL_THREADS (4).
//
// Replay modes. Serial workloads (no @offsets) are submitted one at a
// time, in schedule order, so hit rates and latency distributions are
// deterministic properties of the workload file — the reported rate is
// the SERIAL completion rate (metric "serial_rate"), i.e. 1/mean
// latency, not a throughput: nothing ever queued behind anything.
// Timed workloads (schedule lines with @<start_ms>) are replayed
// OPEN-LOOP: every arrival fires at its offset whether or not earlier
// queries have finished, which makes offered load independent of
// service speed; those runs report the offered rate ("offered_qps")
// and the achieved completion rate ("throughput") separately. Plan
// choices stay deterministic in both modes and the cross-backend
// equality check applies to both.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "plan/plan_serde.h"
#include "plancache/fingerprint.h"
#include "service/optimizer_service.h"
#include "tests/rpc_test_util.h"
#include "workload/workload_spec.h"

// The checked-in workload directory, baked in by CMake so the binary
// finds the suite from any working directory.
#ifndef MPQOPT_WORKLOAD_DIR
#define MPQOPT_WORKLOAD_DIR "bench/workloads"
#endif

namespace mpqopt {
namespace {

using Clock = std::chrono::steady_clock;

/// Canonical 128-bit hash of a chosen plan (set): the serialized plan
/// bytes cover structure, operators, cardinalities, and cost vectors, so
/// two backends agreeing on the hash agree on the whole plan choice.
std::string PlanSignature(const PlanArena& arena,
                          const std::vector<PlanId>& best) {
  ByteWriter writer;
  SerializePlanSet(arena, best, &writer);
  const std::vector<uint8_t>& bytes = writer.buffer();
  char out[48];
  std::snprintf(out, sizeof(out), "%016llx%016llx",
                static_cast<unsigned long long>(
                    HashBytes64(bytes.data(), bytes.size(), /*seed=*/1)),
                static_cast<unsigned long long>(
                    HashBytes64(bytes.data(), bytes.size(), /*seed=*/2)));
  return out;
}

using obs::Percentile;

/// Everything one (workload, backend) run produces.
struct WorkloadRun {
  std::vector<double> latency_seconds;  // per arrival
  std::vector<std::string> plan_sigs;   // per arrival
  double wall_seconds = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t sessions_opened = 0;
  uint64_t session_rounds = 0;
  bool ok = true;
  std::string error;
};

WorkloadRun RunWorkload(const Workload& workload,
                        const std::shared_ptr<ExecutionBackend>& backend,
                        int repeat_cap, obs::TraceCollector* collector) {
  WorkloadRun run;
  ServiceOptions service_opts;
  service_opts.backend = backend;
  service_opts.enable_plan_cache = true;
  if (collector != nullptr) {
    service_opts.trace_collector = collector;
    // Tracing runs also exercise the admission layer so the trace shows
    // the full front door (admission.quota / admission.queue_wait spans)
    // — but with slots and queue depth far above anything the workloads
    // offer, so no arrival is ever actually shed or reordered and the
    // deterministic plan-choice contract is untouched.
    service_opts.enable_admission = true;
    service_opts.admission.max_concurrent = 1 << 16;
    service_opts.admission.queue_depth = 1 << 16;
  }
  OptimizerService service(service_opts);

  // Session counters live on the SHARED backend and accumulate across
  // workloads; report this run's delta.
  const BackendHealth before = backend->health();

  // One arrival: optimize through the right variant, hash the plan.
  const auto run_one = [&](const WorkloadQuery& wq,
                           std::string* sig) -> Status {
    if (wq.variant == WorkloadVariant::kMpq) {
      StatusOr<MpqResult> result = service.Optimize(wq.query, wq.options);
      if (!result.ok()) return result.status();
      *sig = PlanSignature(result.value().arena, result.value().best);
    } else {
      SmaOptions sma;
      sma.space = wq.options.space;
      sma.objective = wq.options.objective;
      sma.alpha = wq.options.alpha;
      sma.num_workers = wq.options.num_workers;
      sma.cost_options = wq.options.cost_options;
      sma.backend = service.shared_backend();
      StatusOr<SmaResult> result = SmaOptimize(wq.query, sma);
      if (!result.ok()) return result.status();
      *sig = PlanSignature(result.value().arena, result.value().best);
    }
    return Status::OK();
  };

  if (workload.timed()) {
    // Open-loop replay: every arrival fires at its schedule offset on
    // its own thread, regardless of whether earlier queries finished.
    // Results land in per-arrival slots, so plan_sigs stays in arrival
    // order (and thus comparable across backends) no matter which
    // queries complete first.
    const std::vector<Workload::TimedArrival> arrivals =
        workload.TimedArrivals(repeat_cap);
    run.latency_seconds.assign(arrivals.size(), 0.0);
    run.plan_sigs.assign(arrivals.size(), std::string());
    std::mutex error_mutex;
    const Clock::time_point batch_start = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
      threads.emplace_back([&, i]() {
        std::this_thread::sleep_until(
            batch_start + std::chrono::milliseconds(arrivals[i].at_ms));
        const WorkloadQuery& wq =
            workload.queries[static_cast<size_t>(arrivals[i].query_index)];
        const Clock::time_point start = Clock::now();
        std::string sig;
        const Status status = run_one(wq, &sig);
        run.latency_seconds[i] =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (status.ok()) {
          run.plan_sigs[i] = std::move(sig);
        } else {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (run.ok) {
            run.ok = false;
            run.error = wq.name + ": " + status.ToString();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    run.wall_seconds =
        std::chrono::duration<double>(Clock::now() - batch_start).count();
    if (!run.ok) return run;
  } else {
    const std::vector<int> arrivals = workload.Arrivals(repeat_cap);
    const Clock::time_point batch_start = Clock::now();
    for (const int index : arrivals) {
      const WorkloadQuery& wq = workload.queries[static_cast<size_t>(index)];
      const Clock::time_point start = Clock::now();
      std::string sig;
      const Status status = run_one(wq, &sig);
      if (!status.ok()) {
        run.ok = false;
        run.error = wq.name + ": " + status.ToString();
        return run;
      }
      run.latency_seconds.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
      run.plan_sigs.push_back(std::move(sig));
    }
    run.wall_seconds =
        std::chrono::duration<double>(Clock::now() - batch_start).count();
  }

  const ServiceStats stats = service.stats();
  run.cache_hits = stats.cache_hits;
  run.cache_misses = stats.cache_misses;
  const BackendHealth after = backend->health();
  run.sessions_opened =
      after.sessions.sessions_opened - before.sessions.sessions_opened;
  run.session_rounds =
      after.sessions.session_rounds - before.sessions.session_rounds;
  return run;
}

std::vector<std::string> ListWorkloadFiles(const std::string& dir) {
  std::vector<std::string> files;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 4 && name.rfind(".mbw") == name.size() - 4) {
        files.push_back(dir + "/" + name);
      }
    }
    ::closedir(d);
  }
  std::sort(files.begin(), files.end());  // deterministic run order
  return files;
}

struct BackendEntry {
  BackendKind kind;
  std::shared_ptr<ExecutionBackend> backend;
};

}  // namespace
}  // namespace mpqopt

int main(int argc, char** argv) {
  using namespace mpqopt;
  const std::string json_path = BenchJsonWriter::ParseFlag(&argc, argv);
  BenchJsonWriter json;

  bool smoke = false;
  std::string workload_dir = MPQOPT_WORKLOAD_DIR;
  if (const char* env = std::getenv("MPQOPT_WORKLOAD_DIR")) {
    workload_dir = env;
  }
  std::string backends_csv = "async,rpc";
  std::string trace_out;
  std::string scrape_out;
  std::string flight_out;
  int telemetry_port = -1;  // -1 = no telemetry server
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--workloads=", 12) == 0) {
      workload_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--backends=", 11) == 0) {
      backends_csv = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--telemetry-port=", 17) == 0) {
      telemetry_port = std::atoi(argv[i] + 17);
      if (telemetry_port < 0 || telemetry_port > 65535) {
        std::fprintf(stderr, "invalid --telemetry-port value: %s\n",
                     argv[i] + 17);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--scrape-out=", 13) == 0) {
      scrape_out = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--flight-out=", 13) == 0) {
      flight_out = argv[i] + 13;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--smoke] [--json=PATH] "
                   "[--workloads=DIR] [--backends=async,rpc] "
                   "[--trace-out=PATH] [--telemetry-port=PORT] "
                   "[--scrape-out=PATH] [--flight-out=PATH]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  if ((!scrape_out.empty() || !flight_out.empty()) && telemetry_port < 0) {
    std::fprintf(stderr,
                 "--scrape-out/--flight-out require --telemetry-port\n");
    return 2;
  }
  obs::TraceCollectorOptions trace_opts;
  trace_opts.chrome_out_path = trace_out;
  obs::TraceCollector collector(trace_opts);
  obs::TraceCollector* const collector_ptr =
      trace_out.empty() ? nullptr : &collector;
  const int repeat_cap =
      smoke ? 2 : static_cast<int>(EnvInt("MPQOPT_MACRO_REPEAT_CAP", 0));
  const int pool_threads = static_cast<int>(EnvInt("MPQOPT_POOL_THREADS", 4));
  const int rpc_workers = static_cast<int>(EnvInt("MPQOPT_RPC_WORKERS", 2));

  PrintHeader(smoke ? "macrobench — deterministic macro workloads (smoke)"
                    : "macrobench — deterministic macro workloads");

  // ---- Load and fingerprint the suite. --------------------------------
  std::vector<Workload> workloads;
  {
    const std::vector<std::string> files = ListWorkloadFiles(workload_dir);
    if (files.empty()) {
      std::fprintf(stderr, "no .mbw workload files under %s\n",
                   workload_dir.c_str());
      return 2;
    }
    TablePrinter table({"workload", "queries", "arrivals", "fingerprint"});
    for (const std::string& file : files) {
      StatusOr<Workload> loaded = LoadWorkloadFile(file);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        return 2;
      }
      Workload w = std::move(loaded).value();
      table.AddRow({w.name, std::to_string(w.queries.size()),
                    std::to_string(w.Arrivals(repeat_cap).size()),
                    WorkloadFingerprint(w)});
      workloads.push_back(std::move(w));
    }
    table.Print();
    std::printf("\n");
  }

  // ---- Build the backend roster. --------------------------------------
  RpcWorkerFarm farm;  // outlives the backends that dial it
  std::vector<BackendEntry> roster;
  for (size_t start = 0; start < backends_csv.size();) {
    size_t comma = backends_csv.find(',', start);
    if (comma == std::string::npos) comma = backends_csv.size();
    const std::string name = backends_csv.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    StatusOr<BackendKind> kind = ParseBackendKind(name);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    if (kind.value() == BackendKind::kRpc) {
      if (rpc_workers <= 0 || ::access(WorkerBinaryPath(), X_OK) != 0) {
        std::printf(
            "rpc backend skipped (worker binary '%s' not runnable; set "
            "MPQOPT_WORKER_BIN\nor run from the build directory; "
            "MPQOPT_RPC_WORKERS=0 also disables)\n\n",
            WorkerBinaryPath());
        continue;
      }
      farm.Start(rpc_workers);
      BackendOptions opts;
      opts.workers_addr = farm.workers_addr();
      StatusOr<std::shared_ptr<ExecutionBackend>> rpc =
          MakeBackend(BackendKind::kRpc, opts);
      MPQOPT_CHECK(rpc.ok());
      roster.push_back({BackendKind::kRpc, rpc.value()});
    } else {
      BackendOptions opts;
      opts.max_threads = pool_threads;
      roster.push_back(
          {kind.value(), MakeBackend(kind.value(), opts).value()});
    }
  }
  if (roster.empty()) {
    std::fprintf(stderr, "no usable backends\n");
    return 2;
  }

  // ---- Telemetry plane (optional). ------------------------------------
  // Served live for the whole run so an external scraper can watch; the
  // self-scrape at the end goes through the same real HTTP socket. Wired
  // to the rpc backend when present so /metrics carries worker-labeled
  // series from every farm worker and /healthz reflects the farm.
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (telemetry_port >= 0) {
    obs::TelemetryOptions topts;
    topts.port = telemetry_port;
    topts.worker_poll_ttl_ms = 0;  // the gate wants fresh worker series
    for (const BackendEntry& entry : roster) {
      if (entry.kind == BackendKind::kRpc) topts.backend = entry.backend;
    }
    if (topts.backend == nullptr) topts.backend = roster.front().backend;
    StatusOr<std::unique_ptr<obs::TelemetryServer>> server =
        obs::TelemetryServer::Start(std::move(topts));
    if (!server.ok()) {
      std::fprintf(stderr, "telemetry server failed: %s\n",
                   server.status().ToString().c_str());
      return 2;
    }
    telemetry = std::move(server).value();
    std::printf("telemetry          http://127.0.0.1:%d/metrics\n\n",
                telemetry->port());
  }

  // ---- Run: every workload on every backend. --------------------------
  // reference_sigs[workload] = first backend's per-arrival plan hashes;
  // every later backend must match them exactly.
  std::map<std::string, std::vector<std::string>> reference_sigs;
  std::map<std::string, std::string> reference_backend;
  bool plans_identical = true;

  for (const Workload& workload : workloads) {
    const bool timed = workload.timed();
    std::printf("--- workload %s%s ---\n", workload.name.c_str(),
                timed ? " (open-loop)" : "");
    // The rate column is honest about what it measures: a serial replay
    // reports the serial completion rate (1/mean latency — nothing ever
    // queues), an open-loop replay reports achieved throughput under
    // the offered arrival rate.
    TablePrinter table({"backend", "arrivals", "p50 (ms)", "p95 (ms)",
                        "p99 (ms)", timed ? "thru q/s" : "serial q/s",
                        "hit rate", "sessions", "plans"});
    for (const BackendEntry& entry : roster) {
      const char* backend_name = BackendKindName(entry.kind);
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      // Register-or-fetch up front so the Since() deltas below are
      // well-defined even for a run that never records (e.g. queue wait
      // without admission enabled).
      obs::Histogram* const service_hist = registry.GetHistogram(
          obs::kServiceLatencyHistogram, obs::Histogram::LatencyBoundariesMs());
      obs::Histogram* const queue_hist = registry.GetHistogram(
          obs::kQueueWaitHistogram, obs::Histogram::LatencyBoundariesMs());
      obs::Histogram* const round_hist = registry.GetHistogram(
          obs::kRoundTimeHistogram, obs::Histogram::LatencyBoundariesMs());
      const obs::HistogramSnapshot service_before = service_hist->Snapshot();
      const obs::HistogramSnapshot queue_before = queue_hist->Snapshot();
      const obs::HistogramSnapshot round_before = round_hist->Snapshot();
      const WorkloadRun run =
          RunWorkload(workload, entry.backend, repeat_cap, collector_ptr);
      if (!run.ok) {
        std::fprintf(stderr, "workload %s on %s failed: %s\n",
                     workload.name.c_str(), backend_name, run.error.c_str());
        return 1;
      }
      const size_t arrivals = run.latency_seconds.size();
      const double qps =
          run.wall_seconds > 0
              ? static_cast<double>(arrivals) / run.wall_seconds
              : 0;
      const uint64_t lookups = run.cache_hits + run.cache_misses;
      const double hit_rate =
          lookups > 0
              ? static_cast<double>(run.cache_hits) /
                    static_cast<double>(lookups)
              : 0;

      std::string plan_verdict = "reference";
      auto ref = reference_sigs.find(workload.name);
      if (ref == reference_sigs.end()) {
        reference_sigs[workload.name] = run.plan_sigs;
        reference_backend[workload.name] = backend_name;
      } else if (run.plan_sigs == ref->second) {
        plan_verdict = "= " + reference_backend[workload.name];
      } else {
        plan_verdict = "MISMATCH";
        plans_identical = false;
      }

      table.AddRow(
          {backend_name, std::to_string(arrivals),
           TablePrinter::FormatMillis(Percentile(run.latency_seconds, 50)),
           TablePrinter::FormatMillis(Percentile(run.latency_seconds, 95)),
           TablePrinter::FormatMillis(Percentile(run.latency_seconds, 99)),
           TablePrinter::FormatDouble(qps, 1),
           TablePrinter::FormatDouble(hit_rate * 100, 1) + "%",
           std::to_string(run.sessions_opened) + "/" +
               std::to_string(run.session_rounds),
           plan_verdict});

      const std::string config = "workload=" + workload.name +
                                 ",backend=" + backend_name +
                                 (smoke ? ",smoke=1" : "");
      json.Add("macrobench", config, "latency_p50",
               Percentile(run.latency_seconds, 50) * 1e3, "ms");
      json.Add("macrobench", config, "latency_p95",
               Percentile(run.latency_seconds, 95) * 1e3, "ms");
      json.Add("macrobench", config, "latency_p99",
               Percentile(run.latency_seconds, 99) * 1e3, "ms");
      if (timed) {
        // Offered rate is a property of the schedule (arrivals over the
        // schedule span), throughput is what the service achieved.
        const std::vector<Workload::TimedArrival> plan =
            workload.TimedArrivals(repeat_cap);
        const double span_s =
            plan.empty() ? 0
                         : static_cast<double>(plan.back().at_ms) / 1e3;
        json.Add("macrobench", config, "offered_qps",
                 span_s > 0 ? static_cast<double>(arrivals) / span_s : 0,
                 "q/s");
        json.Add("macrobench", config, "throughput", qps, "q/s");
      } else {
        // The serial replay's rate is 1/mean latency, not a throughput
        // (requests never queue behind each other), so it is not called
        // queries_per_second.
        json.Add("macrobench", config, "serial_rate", qps, "q/s");
      }
      json.Add("macrobench", config, "cache_hit_rate", hit_rate * 100, "%");
      json.Add("macrobench", config, "sessions_opened",
               static_cast<double>(run.sessions_opened), "count");
      json.Add("macrobench", config, "session_rounds",
               static_cast<double>(run.session_rounds), "count");
      json.Add("macrobench", config, "arrivals",
               static_cast<double>(arrivals), "count");
      // Tail latencies as the serving stack itself measured them — the
      // global registry's fixed-boundary histograms, windowed to exactly
      // this run by snapshot subtraction. service.latency_ms only counts
      // queries that went THROUGH OptimizerService (SMA arrivals bypass
      // it), and admission.queue_wait_ms only fills under --trace-out
      // (which enables the admission layer), so counts are recorded
      // alongside the percentiles.
      const auto add_hist = [&](const char* prefix,
                                const obs::HistogramSnapshot& delta) {
        json.Add("macrobench", config, std::string(prefix) + "_count",
                 static_cast<double>(delta.count), "count");
        if (delta.count == 0) return;
        json.Add("macrobench", config, std::string(prefix) + "_p50",
                 delta.Percentile(50), "ms");
        json.Add("macrobench", config, std::string(prefix) + "_p95",
                 delta.Percentile(95), "ms");
        json.Add("macrobench", config, std::string(prefix) + "_p99",
                 delta.Percentile(99), "ms");
      };
      add_hist("hist_service_latency",
               service_hist->Snapshot().Since(service_before));
      add_hist("hist_queue_wait", queue_hist->Snapshot().Since(queue_before));
      add_hist("hist_round_time", round_hist->Snapshot().Since(round_before));
    }
    table.Print();
    std::printf("\n");
  }

  for (const Workload& workload : workloads) {
    json.Add("macrobench", "workload=" + workload.name, "plans_identical",
             plans_identical ? 1 : 0, "bool");
  }
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;

  // ---- Live telemetry self-scrape. ------------------------------------
  // Over a real TCP socket while the worker farm is still alive — exactly
  // the bytes an external Prometheus scraper would have received.
  if (telemetry != nullptr) {
    const auto save = [](const std::string& path,
                         const std::string& body) -> bool {
      FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
      }
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      return true;
    };
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(telemetry->port());
    StatusOr<obs::HttpResponse> metrics = obs::HttpGet(endpoint, "/metrics");
    StatusOr<obs::HttpResponse> health = obs::HttpGet(endpoint, "/healthz");
    StatusOr<obs::HttpResponse> flight =
        obs::HttpGet(endpoint, "/debug/flightrecorder");
    if (!metrics.ok() || metrics.value().status != 200 || !health.ok() ||
        health.value().status != 200 || !flight.ok() ||
        flight.value().status != 200) {
      std::fprintf(stderr, "telemetry self-scrape failed\n");
      return 1;
    }
    std::printf("telemetry scrape   %zu bytes of /metrics, /healthz %s\n",
                metrics.value().body.size(),
                health.value().body.find("\"state\":\"READY\"") !=
                        std::string::npos
                    ? "READY"
                    : "NOT READY");
    if (!scrape_out.empty() && !save(scrape_out, metrics.value().body)) {
      return 1;
    }
    if (!flight_out.empty() && !save(flight_out, flight.value().body)) {
      return 1;
    }
  }

  if (collector_ptr != nullptr) {
    const Status written = collector.WriteChromeTrace();
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu query traces to %s (chrome://tracing)\n\n",
                collector.collected(), trace_out.c_str());
  }

  if (!plans_identical) {
    std::fprintf(stderr,
                 "FAIL: backends disagreed on at least one plan choice — "
                 "the cross-backend determinism contract is broken\n");
    return 1;
  }
  std::printf(
      "All backends produced identical plan choices on every arrival.\n"
      "Expected shape: oltp_repeat's ~92%% repetition makes hits dominate\n"
      "(flat low latency everywhere, biggest win on rpc); analytics_mix is\n"
      "miss-heavy, so backends differ by their real round cost;\n"
      "sma_sessions' session counters are nonzero — replicas opened and\n"
      "stepped per SMA arrival.\n");
  return 0;
}
