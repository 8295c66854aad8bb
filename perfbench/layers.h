// Traced replay: the benchmark calls each serving layer's public function
// itself, in the order OptimizerService::Optimize does, and records a
// span around every call.
//
//   arrival
//     plancache.probe    FingerprintQuery + PlanCache::Lookup
//     mpq.serialize      MpqOptimizer::BuildRequests          (miss only)
//     cluster.round      ExecutionBackend::RunRound(WorkerMain tasks)
//     mpq.finalize       MpqOptimizer::FinalizeResponses
//     plancache.insert   PlanCache::Insert
//
// Spans stay in memory (per client thread, no locking) and are written
// out when the run ends.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

enum Layer : uint8_t {
  kArrivalSpan = 0,
  kProbe,
  kSerialize,
  kRound,
  kFinalize,
  kInsert,
  kNumLayers,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  int64_t arrival = 0;
  int32_t id = 0;       ///< index in its client's span list
  int32_t parent = -1;  ///< -1 for the arrival span
  Layer layer = kArrivalSpan;
  int64_t start_ns = 0;  ///< since the traced replay started
  int64_t end_ns = 0;
};

/// One traced arrival: the same outcome fields as the untraced replay,
/// plus what the layer calls returned.
struct TracedArrival {
  Arrival outcome;
  /// Seconds spent in each layer's span (index by Layer).
  double layer_s[kNumLayers] = {};
  /// Per-task worker detail of a miss: DP seconds (MpqResult::
  /// worker_seconds) and task compute seconds (RoundResult::
  /// compute_seconds).
  std::vector<double> dp_s;
  std::vector<double> compute_s;
};

struct TracedReplay {
  std::vector<TracedArrival> arrivals;
  std::vector<std::vector<SpanRecord>> spans;  ///< per client
  double wall_s = 0;
};

/// Replays the same n timed arrivals as the untraced run on `backend`,
/// with a fresh plan cache configured like the service's.
TracedReplay ReplayLayers(mpqopt::ExecutionBackend* backend,
                          const WorkloadSpec& spec, uint64_t seed, int64_t n,
                          FailureLog* failures);

/// Writes every span as a tab-separated line: arrival, span id, parent
/// id, layer name, start ns, end ns. Returns false if the file could not
/// be written.
bool WriteSpans(const TracedReplay& replay, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
