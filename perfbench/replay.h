// Untraced closed-loop replay through OptimizerService::Optimize, plus the
// correctness checks every returned plan passes.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"
#include "service/optimizer_service.h"
#include "workloads.h"

namespace perfbench {

/// What one arrival produced. Written only by the client thread that ran
/// the arrival.
struct Arrival {
  /// Send time (steady clock, seconds) and Optimize call time.
  double start_s = 0;
  double latency_s = 0;
  double modeled_s = 0;
  uint64_t net_bytes = 0;
  int64_t splits = 0;
  int64_t plans_costed = 0;
  int64_t memo_sets_max = 0;
  /// Hash of the returned plan set's wire bytes.
  uint64_t signature = 0;
  /// Estimated time cost of the returned plan.
  double best_time = 0;
  bool hit = false;
  /// Optimize succeeded and returned one plan, which passed ValidatePlan.
  bool ok = false;
};

/// First failure seen by any client, for the report.
class FailureLog {
 public:
  void Record(int64_t arrival, const std::string& what);
  std::string first() const;

 private:
  mutable std::mutex mutex_;
  std::string first_;
};

/// Hash of SerializePlanSet(arena, best): equal plans, equal signatures.
uint64_t PlanSignature(const mpqopt::PlanArena& arena,
                       const std::vector<mpqopt::PlanId>& best);

/// Exactly one plan in `best`, which passes ValidatePlan as a left-deep
/// plan.
mpqopt::Status CheckPlans(const WorkloadSpec& spec, const mpqopt::Query& query,
                          const mpqopt::PlanArena& arena,
                          const std::vector<mpqopt::PlanId>& best);

/// Runs arrival(i) for every i in [0, n) on `clients` closed-loop client
/// threads (client c runs the arrivals with i % clients == c, in order),
/// released together. Returns the wall seconds from release to the last
/// client's finish.
double RunClients(int clients, int64_t n,
                  const std::function<void(int64_t)>& arrival);

/// Arrival indices re-optimized serially after the window: `count` misses
/// spread evenly over [0, n).
std::vector<int64_t> SerialSample(const WorkloadSpec& spec, int64_t n,
                                  int count);

/// Replays arrivals->size() arrivals of `stream` through service.Optimize,
/// writing arrival i's outcome to (*arrivals)[i], which the caller
/// allocates. Returns the wall seconds of the replay.
double ReplayThroughService(mpqopt::OptimizerService* service,
                            const WorkloadSpec& spec, uint64_t seed,
                            Stream stream, std::vector<Arrival>* arrivals,
                            FailureLog* failures);

/// Checks the serial sample against OptimizeSerial: the best cost must be
/// bit-equal. Marks each mismatching arrival in `bad`.
void CheckAgainstSerial(const WorkloadSpec& spec, uint64_t seed,
                        const std::vector<int64_t>& sample,
                        const std::vector<Arrival>& arrivals,
                        std::vector<bool>* bad, FailureLog* failures);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
