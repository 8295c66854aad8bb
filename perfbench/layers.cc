#include "layers.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "mpq/mpq.h"
#include "plancache/fingerprint.h"
#include "plancache/plan_cache.h"
#include "setup.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

const char* LayerName(Layer layer) {
  switch (layer) {
    case kArrivalSpan: return "arrival";
    case kProbe: return "plancache.probe";
    case kSerialize: return "mpq.serialize";
    case kRound: return "cluster.round";
    case kFinalize: return "mpq.finalize";
    case kInsert: return "plancache.insert";
    case kNumLayers: break;
  }
  return "?";
}

namespace {

/// Records one span into a client's list and adds its duration to the
/// arrival's layer total.
class ScopedSpan {
 public:
  ScopedSpan(std::vector<SpanRecord>* spans, Clock::time_point origin,
             TracedArrival* arrival, int64_t index, Layer layer,
             int32_t parent)
      : spans_(spans), origin_(origin), arrival_(arrival) {
    SpanRecord span;
    span.arrival = index;
    span.id = static_cast<int32_t>(spans_->size());
    span.parent = parent;
    span.layer = layer;
    id_ = span.id;
    spans_->push_back(span);
    (*spans_)[id_].start_ns = Nanos();
  }
  ~ScopedSpan() {
    SpanRecord& span = (*spans_)[id_];
    span.end_ns = Nanos();
    arrival_->layer_s[span.layer] += (span.end_ns - span.start_ns) * 1e-9;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  int64_t Nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::vector<SpanRecord>* spans_;
  Clock::time_point origin_;
  TracedArrival* arrival_;
  int32_t id_ = 0;
};

}  // namespace

TracedReplay ReplayLayers(mpqopt::ExecutionBackend* backend,
                          const WorkloadSpec& spec, uint64_t seed, int64_t n,
                          FailureLog* failures) {
  mpqopt::PlanCacheOptions cache_options;
  cache_options.capacity_bytes = kPlanCacheBytes;
  mpqopt::PlanCache cache(cache_options);
  const mpqopt::MpqOptions options = OptionsFor(spec);
  const std::vector<mpqopt::WorkerTask> tasks(
      options.num_workers, mpqopt::WorkerTask(&mpqopt::MpqOptimizer::WorkerMain));

  TracedReplay replay;
  replay.arrivals.resize(n);
  replay.spans.resize(spec.clients);
  for (std::vector<SpanRecord>& spans : replay.spans) {
    spans.reserve(static_cast<size_t>(n / spec.clients + 1) * kNumLayers);
  }
  const Clock::time_point origin = Clock::now();
  replay.wall_s = RunClients(spec.clients, n, [&](int64_t i) {
    const mpqopt::Query query = QueryForArrival(spec, seed, Stream::kTimed, i);
    std::vector<SpanRecord>* spans = &replay.spans[i % spec.clients];
    TracedArrival& t = replay.arrivals[i];
    Arrival& a = t.outcome;
    std::shared_ptr<const mpqopt::CachedPlan> hit;
    mpqopt::StatusOr<mpqopt::MpqResult> finalized =
        mpqopt::Status::Internal("not finalized");
    {
      ScopedSpan root(spans, origin, &t, i, kArrivalSpan, -1);
      mpqopt::PlanCacheKey key;
      {
        ScopedSpan probe(spans, origin, &t, i, kProbe, root.id());
        key = mpqopt::FingerprintQuery(query, options);
        hit = cache.Lookup(key);
      }
      if (hit == nullptr) {
        std::vector<std::vector<uint8_t>> requests;
        {
          ScopedSpan serialize(spans, origin, &t, i, kSerialize, root.id());
          requests = mpqopt::MpqOptimizer::BuildRequests(query, options);
        }
        mpqopt::StatusOr<mpqopt::RoundResult> round =
            mpqopt::Status::Internal("round not run");
        {
          ScopedSpan span(spans, origin, &t, i, kRound, root.id());
          round = backend->RunRound(tasks, requests);
        }
        if (round.ok()) {
          {
            ScopedSpan span(spans, origin, &t, i, kFinalize, root.id());
            finalized = mpqopt::MpqOptimizer::FinalizeResponses(
                round.value().responses, options);
          }
          if (finalized.ok()) {
            ScopedSpan span(spans, origin, &t, i, kInsert, root.id());
            cache.Insert(key, query.TableStatistics(),
                         finalized.value().arena, finalized.value().best);
          }
          a.net_bytes = round.value().traffic.bytes_sent;
          t.compute_s = std::move(round.value().compute_seconds);
        } else {
          finalized = round.status();
        }
      }
    }
    a.latency_s = t.layer_s[kArrivalSpan];
    a.hit = hit != nullptr;
    const mpqopt::PlanArena* arena = nullptr;
    const std::vector<mpqopt::PlanId>* best = nullptr;
    if (a.hit) {
      arena = &hit->arena;
      best = &hit->best;
    } else if (finalized.ok()) {
      const mpqopt::MpqResult& r = finalized.value();
      a.splits = r.total_splits;
      a.plans_costed = r.total_plans_costed;
      a.memo_sets_max = r.max_worker_memo_sets;
      t.dp_s = r.worker_seconds;
      arena = &r.arena;
      best = &r.best;
    } else {
      failures->Record(i, "traced: " + finalized.status().ToString());
      return;
    }
    a.signature = PlanSignature(*arena, *best);
    const mpqopt::Status valid = CheckPlans(spec, query, *arena, *best);
    if (!valid.ok()) {
      failures->Record(i, "traced: invalid plan: " + valid.ToString());
      return;
    }
    a.ok = true;
  });
  return replay;
}

bool WriteSpans(const TracedReplay& replay, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "arrival\tspan\tparent\tlayer\tstart_ns\tend_ns\n");
  for (const std::vector<SpanRecord>& spans : replay.spans) {
    for (const SpanRecord& s : spans) {
      std::fprintf(out, "%" PRId64 "\t%d\t%d\t%s\t%" PRId64 "\t%" PRId64 "\n",
                   s.arrival, s.id, s.parent, LayerName(s.layer), s.start_ns,
                   s.end_ns);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
