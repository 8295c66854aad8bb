#include "replay.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/serialize.h"
#include "optimizer/dp.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"
#include "plancache/fingerprint.h"

namespace perfbench {

using mpqopt::PlanArena;
using mpqopt::PlanId;
using mpqopt::Status;

void FailureLog::Record(int64_t arrival, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_.empty()) {
    first_ = "arrival " + std::to_string(arrival) + ": " + what;
  }
}

std::string FailureLog::first() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_;
}

uint64_t PlanSignature(const PlanArena& arena,
                       const std::vector<PlanId>& best) {
  mpqopt::ByteWriter writer;
  mpqopt::SerializePlanSet(arena, best, &writer);
  return mpqopt::HashBytes64(writer.buffer().data(), writer.buffer().size(),
                             /*seed=*/0);
}

Status CheckPlans(const WorkloadSpec& spec, const mpqopt::Query& query,
                  const PlanArena& arena, const std::vector<PlanId>& best) {
  if (best.size() != 1) {
    return Status::Internal(std::to_string(best.size()) +
                            " plans returned, expected one");
  }
  const mpqopt::MpqOptions mpq = OptionsFor(spec);
  const mpqopt::CostModel model(mpq.objective);
  mpqopt::PlanValidationOptions options;
  options.require_left_deep = mpq.space == mpqopt::PlanSpace::kLinear;
  return mpqopt::ValidatePlan(arena, best[0], query, model, options);
}

double RunClients(int clients, int64_t n,
                  const std::function<void(int64_t)>& arrival) {
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int64_t i = c; i < n; i += clients) arrival(i);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<int64_t> SerialSample(const WorkloadSpec& spec, int64_t n,
                                  int count) {
  std::vector<int64_t> sample;
  for (int k = 0; k < count; ++k) {
    int64_t i = k * n / count;
    while (i < n && RepeatSource(spec, i) >= 0) ++i;
    if (i < n && (sample.empty() || sample.back() != i)) sample.push_back(i);
  }
  return sample;
}

double ReplayThroughService(mpqopt::OptimizerService* service,
                            const WorkloadSpec& spec, uint64_t seed,
                            Stream stream, std::vector<Arrival>* arrivals,
                            FailureLog* failures) {
  const mpqopt::MpqOptions options = OptionsFor(spec);
  const auto n = static_cast<int64_t>(arrivals->size());
  return RunClients(spec.clients, n, [&](int64_t i) {
    const mpqopt::Query query = QueryForArrival(spec, seed, stream, i);
    const auto start = std::chrono::steady_clock::now();
    mpqopt::StatusOr<mpqopt::MpqResult> result =
        service->Optimize(query, options);
    const auto end = std::chrono::steady_clock::now();
    Arrival& a = (*arrivals)[i];
    a.start_s =
        std::chrono::duration<double>(start.time_since_epoch()).count();
    a.latency_s = std::chrono::duration<double>(end - start).count();
    if (!result.ok()) {
      failures->Record(i, result.status().ToString());
      return;
    }
    const mpqopt::MpqResult& r = result.value();
    a.hit = r.from_plan_cache;
    a.modeled_s = r.simulated_seconds;
    a.net_bytes = r.network_bytes;
    a.splits = r.total_splits;
    a.plans_costed = r.total_plans_costed;
    a.memo_sets_max = r.max_worker_memo_sets;
    a.signature = PlanSignature(r.arena, r.best);
    const Status valid = CheckPlans(spec, query, r.arena, r.best);
    if (!valid.ok()) {
      failures->Record(i, "invalid plan: " + valid.ToString());
      return;
    }
    a.best_time = r.arena.node(r.best[0]).cost.time();
    a.ok = true;
  });
}

void CheckAgainstSerial(const WorkloadSpec& spec, uint64_t seed,
                        const std::vector<int64_t>& sample,
                        const std::vector<Arrival>& arrivals,
                        std::vector<bool>* bad, FailureLog* failures) {
  const mpqopt::MpqOptions options = OptionsFor(spec);
  mpqopt::DpConfig config;
  config.space = options.space;
  config.objective = options.objective;
  config.alpha = options.alpha;
  for (int64_t i : sample) {
    const Arrival& a = arrivals[i];
    if (!a.ok) continue;  // already counted as a failure
    const mpqopt::Query query = QueryForArrival(spec, seed, Stream::kTimed, i);
    mpqopt::StatusOr<mpqopt::DpResult> serial =
        mpqopt::OptimizeSerial(query, config);
    if (!serial.ok()) {
      failures->Record(i, "serial: " + serial.status().ToString());
      (*bad)[i] = true;
      continue;
    }
    const mpqopt::DpResult& reference = serial.value();
    if (reference.best.size() != 1 ||
        reference.arena.node(reference.best[0]).cost.time() != a.best_time) {
      failures->Record(i, "differs from OptimizeSerial");
      (*bad)[i] = true;
    }
  }
}

}  // namespace perfbench
