// Copyright 2026 mpqopt authors.
//
// Figure 9 (repo extension, not in the paper): SMA's broadcast traffic
// priced on real loopback TCP versus the modeled network.
//
// Until the session subsystem (src/cluster/session/) existed, SMA's
// per-level broadcast pattern could only be MODELED: its per-node memo
// replicas kept its tasks off the rpc backend, so the network series of
// the paper's Figure 1/6 comparisons came from byte accounting alone.
// With stateful remote workers, the same query now runs with the
// replicas in real mpqopt_worker processes — this bench drives both and
// checks the honesty of the model: bytes, messages, and rounds must
// MATCH exactly (the model prices real serialized payloads), while the
// wall-clock column shows what loopback sockets add per level.
//
// Workers are self-hosted on loopback subprocesses like the RPC tests
// (set MPQOPT_WORKER_BIN or run from the build directory).
//
// Knobs: MPQOPT_SMA_WORKERS (default 4 SMA nodes), MPQOPT_RPC_WORKERS
// (2 worker processes), MPQOPT_SMA_MAX_TABLES (12), and the shared
// MPQOPT_SEED / network knobs of bench_common.h.

#include <memory>

#include "bench/bench_common.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

struct SeriesPoint {
  SmaResult result;
  double wall_seconds = 0;
};

int Main() {
  const BenchConfig config = BenchConfig::FromEnv();
  const uint64_t sma_workers =
      static_cast<uint64_t>(EnvInt("MPQOPT_SMA_WORKERS", 4));
  const int rpc_workers = static_cast<int>(EnvInt("MPQOPT_RPC_WORKERS", 2));
  const int max_tables =
      static_cast<int>(EnvInt("MPQOPT_SMA_MAX_TABLES", 12));

  RpcWorkerFarm farm;
  farm.Start(rpc_workers);
  BackendOptions backend_opts;
  backend_opts.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> rpc =
      MakeBackend(BackendKind::kRpc, backend_opts);
  MPQOPT_CHECK(rpc.ok());
  const NetworkModel network = NetworkFromEnv();

  PrintHeader("fig9: SMA broadcast traffic, modeled vs real loopback TCP");
  std::printf("# %llu SMA nodes over %d mpqopt_worker processes; one "
              "session per query,\n# one Step + one Broadcast per level\n",
              static_cast<unsigned long long>(sma_workers), rpc_workers);
  std::printf("%-8s %-8s %14s %10s %8s %12s %12s\n", "tables", "mode",
              "net_bytes", "messages", "rounds", "cluster_ms", "wall_ms");

  for (int n = 8; n <= max_tables; n += 2) {
    const Query query =
        MakeQueries(n, 1, JoinGraphShape::kStar, config.seed)[0];
    SmaOptions base;
    base.space = PlanSpace::kLinear;
    base.num_workers = sma_workers;
    base.network = network;

    SeriesPoint modeled;
    {
      StatusOr<SmaResult> r = SmaOptimize(query, base);
      MPQOPT_CHECK(r.ok());
      modeled.result = std::move(r).value();
      modeled.wall_seconds = modeled.result.wall_seconds;
    }
    SeriesPoint real;
    {
      SmaOptions over_rpc = base;
      over_rpc.backend = rpc.value();
      StatusOr<SmaResult> r = SmaOptimize(query, over_rpc);
      MPQOPT_CHECK(r.ok());
      real.result = std::move(r).value();
      real.wall_seconds = real.result.wall_seconds;
    }

    for (const auto& [mode, point] :
         {std::pair<const char*, const SeriesPoint*>{"model", &modeled},
          {"tcp", &real}}) {
      std::printf("%-8d %-8s %14llu %10llu %8d %12.3f %12.3f\n", n, mode,
                  static_cast<unsigned long long>(point->result.network_bytes),
                  static_cast<unsigned long long>(
                      point->result.network_messages),
                  point->result.rounds,
                  point->result.simulated_seconds * 1e3,
                  point->wall_seconds * 1e3);
    }
    if (real.result.network_bytes != modeled.result.network_bytes ||
        real.result.network_messages != modeled.result.network_messages ||
        real.result.rounds != modeled.result.rounds) {
      std::printf("FAIL: real-TCP accounting diverged from the model at "
                  "n=%d\n", n);
      return 1;
    }
  }
  std::printf("# bytes/messages/rounds identical in both modes: the modeled "
              "series\n# prices exactly the payloads that crossed the real "
              "sockets\n");
  return 0;
}

}  // namespace
}  // namespace mpqopt

int main() { return mpqopt::Main(); }
