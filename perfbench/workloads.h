// Workload definitions of the serving-path benchmark.
//
// A workload fixes the query shape (Steinbrunn star queries of a given
// size), the MPQ options, the load shape (closed-loop client count and
// the execution backend behind OptimizerService), and the arrival
// pattern. Every run replays a fixed, count-bounded arrival list derived
// from the seed alone, so work counts (bytes, cache hits, DP splits)
// repeat exactly between runs of one seed and only timings vary.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/query.h"
#include "mpq/mpq.h"

namespace perfbench {

enum class BackendChoice {
  kAsync,  ///< AsyncBatchBackend with kAsyncThreads pool threads
  kRpc,    ///< RpcBackend over kRpcWorkers loopback mpqopt_worker processes
};

/// Plan-space partitions (worker tasks) per query.
inline constexpr uint64_t kPartitions = 16;
/// Pool threads of the in-process backend (fixed, never 0 = auto). A
/// submitting client's thread helps drain its own round, so three pool
/// threads plus one client fill a 4-core host. With four, five threads
/// time-share four cores and the largest partition's measured compute,
/// which sets modeled_ms_p50, nearly doubles (22 ms against 12 ms on
/// linear16_miss at equal latency).
inline constexpr int kAsyncThreads = 3;
/// mpqopt_worker processes behind the rpc backend.
inline constexpr int kRpcWorkers = 2;
/// Repeated arrivals: positions 6 and 7 of every 8, so each of two
/// clients sends one repeat in four of its arrivals. A repeat re-sends
/// the query of the arrival this many positions earlier: an even
/// distance, so the source ran on the same client and has completed; and
/// 14 = 6 (mod 8), so the source sits at position 0 or 1 and is never
/// itself a repeat.
inline constexpr int64_t kReuseDistance = 14;
/// Fewest arrivals per run: p90 then has at least ten samples beyond it.
inline constexpr int64_t kMinArrivals = 100;

/// Every workload optimizes left-deep plans for time alone.
struct WorkloadSpec {
  std::string name;
  int tables = 0;
  int clients = 1;
  BackendChoice backend = BackendChoice::kAsync;
  /// One arrival in four repeats an earlier query (a plan-cache hit).
  bool repeats = false;
  /// Arrivals per second the workload sustains on a 4-core host; sizes
  /// the fixed arrival list to about the requested run length.
  double nominal_qps = 0;
  /// Untimed warm-up arrivals per set-up; sized to outlast the host's
  /// cold start (about 1.2 s of slowed rounds after an idle period).
  int64_t warmup_arrivals = 0;
  /// Misses re-optimized with OptimizeSerial after the timed window.
  int serial_checks = 0;
};

/// Every workload, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// MPQ options every arrival of `spec` is optimized with: the defaults
/// (left-deep, time only) with kPartitions. The backend field is left
/// null; the service supplies its shared one.
mpqopt::MpqOptions OptionsFor(const WorkloadSpec& spec);

/// Arrivals in one run of `seconds`: nominal rate times length, at
/// least kMinArrivals.
int64_t ArrivalCount(const WorkloadSpec& spec, int seconds);

/// The arrival whose query arrival `i` repeats, or -1 for a fresh query.
int64_t RepeatSource(const WorkloadSpec& spec, int64_t i);

/// Independent query streams of one seed.
enum class Stream : uint64_t { kTimed = 1, kWarmup = 2 };

/// The query arrival `i` of `stream` sends: the query of its repeat
/// source, or a fresh Steinbrunn star query determined by (seed, stream,
/// i) alone.
mpqopt::Query QueryForArrival(const WorkloadSpec& spec, uint64_t seed,
                              Stream stream, int64_t i);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
