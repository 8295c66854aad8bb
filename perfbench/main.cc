// mpq_perfbench — one run of one serving-path workload.
//
//   mpq_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --worker-bin=PATH [--spans-out=PATH]
//
// Sets the workload's deployment up several times (each: backend,
// OptimizerService, untimed warm-up) and keeps the last one; replays the
// fixed timed arrival list through OptimizerService::Optimize on
// closed-loop clients; checks every plan. With --trace=1 it replays only
// a prefix of the arrivals untraced (the overhead baseline), then all of
// them calling each layer itself (layers.h), and reports the per-layer
// split instead of the end-to-end metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}), and guard — the work counts that must
// repeat exactly across runs of one seed. Exit status 1 on any
// failed arrival or check.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/percentile.h"
#include "plancache/fingerprint.h"
#include "replay.h"
#include "setup.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// glibc malloc arenas of this process: one per core of a 4-core host.
/// Uncapped, each transient per-call finalize thread may claim an arena
/// of its own (up to 8 per core), and how many exist at the peak depends
/// on thread timing: peak_rss_mb on small8_mix_async then ranged over
/// 35-50 MB between runs, against 27-31 MB with the cap.
constexpr int kMallocArenas = 4;

/// Most slices a run's timings are summarized over (SliceCount).
constexpr size_t kMaxSlices = 10;

/// Untraced arrivals of a --trace=1 run: the overhead baseline.
int64_t TracePrefix(int64_t n) {
  return std::min(n, std::max(kMinArrivals, n / 5));
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string worker_bin;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (value.empty() || *end != '\0') args->seconds = 0;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "worker-bin") {
      args->worker_bin = value;
    } else if (key == "spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  return have_seed && args->seconds > 0 && !args->workload.empty() &&
         !args->worker_bin.empty();
}

double Median(std::vector<double> values) {
  return mpqopt::obs::Percentile(std::move(values), 50);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

/// Metrics in insertion order, printed as "name value unit" lines and as
/// the JSON "metrics" object.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-32s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (const Entry& e : entries_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", e.name.c_str(), e.value,
                    e.unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The work counts of one replay that repeat exactly for a given seed.
struct WorkCounts {
  int64_t arrivals = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  uint64_t net_bytes = 0;
  int64_t splits = 0;
  int64_t plans_costed = 0;
  int64_t memo_sets_max = 0;
  uint64_t plan_digest = 0;

  bool operator==(const WorkCounts&) const = default;

  double PerMiss(double total) const {
    return misses > 0 ? total / static_cast<double>(misses) : 0;
  }
};

WorkCounts CountWork(const std::vector<const Arrival*>& arrivals) {
  WorkCounts c;
  std::vector<uint64_t> signatures;
  signatures.reserve(arrivals.size());
  for (const Arrival* a : arrivals) {
    ++c.arrivals;
    signatures.push_back(a->signature);
    if (a->hit) {
      ++c.hits;
      continue;
    }
    ++c.misses;
    c.net_bytes += a->net_bytes;
    c.splits += a->splits;
    c.plans_costed += a->plans_costed;
    c.memo_sets_max = std::max(c.memo_sets_max, a->memo_sets_max);
  }
  c.plan_digest = mpqopt::HashBytes64(
      reinterpret_cast<const uint8_t*>(signatures.data()),
      signatures.size() * sizeof(uint64_t), /*seed=*/0);
  return c;
}

std::string GuardJson(const WorkCounts& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"arrivals\": %" PRId64 ", \"hit_frac\": \"%.17g\", "
      "\"net_bytes_per_query\": \"%.17g\", \"splits_per_query\": \"%.17g\", "
      "\"plans_costed_per_query\": \"%.17g\", \"memo_sets_max\": %" PRId64
      ", \"plan_digest\": \"%016" PRIx64 "\"}",
      c.arrivals,
      static_cast<double>(c.hits) / static_cast<double>(c.arrivals),
      c.PerMiss(static_cast<double>(c.net_bytes)),
      c.PerMiss(static_cast<double>(c.splits)),
      c.PerMiss(static_cast<double>(c.plans_costed)), c.memo_sets_max,
      c.plan_digest);
  return buf;
}

/// Slices a run's timings are summarized over: one per 100 arrivals (so
/// a slice's p90 has ten samples beyond it), at most kMaxSlices. Each
/// figure is the median of its per-slice values, so a host stall that
/// slows one slice moves it less than it moves the pooled figure.
size_t SliceCount(size_t n) {
  return std::clamp<size_t>(n / 100, 1, kMaxSlices);
}

/// `values` (in arrival order) cut into `count` equal slices.
std::vector<std::vector<double>> Slice(const std::vector<double>& values,
                                       size_t count) {
  std::vector<std::vector<double>> slices;
  for (size_t k = 0; k < count; ++k) {
    const size_t lo = k * values.size() / count;
    const size_t hi = (k + 1) * values.size() / count;
    if (hi > lo) slices.emplace_back(values.begin() + lo, values.begin() + hi);
  }
  return slices;
}

/// Median over slices of each slice's percentile q.
double SlicedPercentile(const std::vector<std::vector<double>>& slices,
                        double q) {
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : slices) {
    per_slice.push_back(mpqopt::obs::Percentile(slice, q));
  }
  return Median(per_slice);
}

/// Completed arrivals per second: the median over `slices` equal time
/// slices of the window of the arrivals completing in each.
double SlicedThroughput(const std::vector<const Arrival*>& arrivals,
                        const std::vector<bool>& bad, size_t slices) {
  double first = arrivals.front()->start_s;
  double last = first;
  for (const Arrival* a : arrivals) {
    first = std::min(first, a->start_s);
    last = std::max(last, a->start_s + a->latency_s);
  }
  const double width = (last - first) / static_cast<double>(slices);
  std::vector<double> completed(slices, 0);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (bad[i]) continue;
    const double end = arrivals[i]->start_s + arrivals[i]->latency_s;
    const auto k = static_cast<size_t>((end - first) / width);
    completed[std::min(k, slices - 1)] += 1;
  }
  return Median(completed) / width;
}

/// Marks arrivals whose repeat did not return, from the plan cache, the
/// plan of the miss that cached it.
void CheckHitSignatures(const WorkloadSpec& spec,
                        const std::vector<const Arrival*>& arrivals,
                        std::vector<bool>* bad, FailureLog* failures) {
  for (int64_t i = 0; i < static_cast<int64_t>(arrivals.size()); ++i) {
    const int64_t source = RepeatSource(spec, i);
    if (source < 0 || !arrivals[i]->ok || !arrivals[source]->ok) continue;
    if (!arrivals[i]->hit ||
        arrivals[i]->signature != arrivals[source]->signature) {
      failures->Record(i, "repeat is not a cache hit of its source's plan");
      (*bad)[i] = true;
    }
  }
}

/// Marks arrivals that failed or returned an invalid plan.
void CheckOutcomes(const std::vector<const Arrival*>& arrivals,
                   std::vector<bool>* bad) {
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (!arrivals[i]->ok) (*bad)[i] = true;
  }
}

/// Per-layer metrics of the traced replay. trace.overhead_frac compares
/// the traced p50 over the first `prefix` arrivals with the untraced p50
/// over the same arrivals.
void AddLayerMetrics(const TracedReplay& traced, const WorkCounts& counts,
                     int slots, int64_t prefix, double untraced_p50_s,
                     uint64_t rescattered, MetricList* m) {
  std::vector<double> probe, insert, serialize, finalize, codec, master, round,
      overhead, dp_max, dp_sum, skew, latency;
  double dp_total = 0;
  double covered = 0;
  double traced_total = 0;
  for (const TracedArrival& t : traced.arrivals) {
    const double total = t.layer_s[kArrivalSpan];
    if (static_cast<int64_t>(latency.size()) < prefix) {
      latency.push_back(total);
    }
    probe.push_back(t.layer_s[kProbe]);
    traced_total += total;
    for (int l = kProbe; l < kNumLayers; ++l) covered += t.layer_s[l];
    if (t.outcome.hit || t.dp_s.empty()) continue;
    insert.push_back(t.layer_s[kInsert]);
    serialize.push_back(t.layer_s[kSerialize]);
    finalize.push_back(t.layer_s[kFinalize]);
    master.push_back((t.layer_s[kSerialize] + t.layer_s[kFinalize]) / total);
    round.push_back(t.layer_s[kRound]);
    double compute = 0, dp = 0, dp_peak = 0, task_codec = 0;
    for (size_t k = 0; k < t.dp_s.size(); ++k) {
      compute += t.compute_s[k];
      dp += t.dp_s[k];
      dp_peak = std::max(dp_peak, t.dp_s[k]);
      task_codec += t.compute_s[k] - t.dp_s[k];
    }
    codec.push_back(task_codec);
    overhead.push_back(t.layer_s[kRound] - compute / slots);
    dp_max.push_back(dp_peak);
    dp_sum.push_back(dp);
    skew.push_back(dp > 0 ? dp_peak / (dp / t.dp_s.size()) : 1);
    dp_total += dp;
  }
  m->Add("plancache.probe_us_p50", Median(probe) * 1e6, "us");
  m->Add("plancache.insert_us_p50", Median(insert) * 1e6, "us");
  m->Add("plancache.hit_frac",
         static_cast<double>(counts.hits) / counts.arrivals, "fraction");
  m->Add("mpq.serialize_us_p50", Median(serialize) * 1e6, "us");
  m->Add("mpq.finalize_us_p50", Median(finalize) * 1e6, "us");
  m->Add("mpq.worker_codec_us_p50", Median(codec) * 1e6, "us");
  m->Add("mpq.master_frac", Median(master), "fraction");
  m->Add("cluster.round_ms_p50", Median(round) * 1e3, "ms");
  m->Add("cluster.overhead_ms_p50", Median(overhead) * 1e3, "ms");
  m->Add("cluster.rescattered", static_cast<double>(rescattered), "count");
  m->Add("optimizer.dp_ms_max_p50", Median(dp_max) * 1e3, "ms");
  m->Add("optimizer.dp_ms_sum_p50", Median(dp_sum) * 1e3, "ms");
  m->Add("optimizer.ns_per_split",
         counts.splits > 0 ? dp_total / counts.splits * 1e9 : 0, "ns");
  m->Add("optimizer.partition_skew", Median(skew), "ratio");
  m->Add("optimizer.splits_per_query",
         counts.PerMiss(static_cast<double>(counts.splits)), "count");
  m->Add("optimizer.plans_costed_per_query",
         counts.PerMiss(static_cast<double>(counts.plans_costed)), "count");
  m->Add("optimizer.memo_sets_max", static_cast<double>(counts.memo_sets_max),
         "count");
  m->Add("trace.coverage_frac", traced_total > 0 ? covered / traced_total : 0,
         "fraction");
  m->Add("trace.overhead_frac", Median(latency) / untraced_p50_s - 1,
         "fraction");
}

uint64_t Rescattered(const mpqopt::ExecutionBackend& backend) {
  const mpqopt::BackendHealth h = backend.health();
  return h.tasks_rescattered + h.reconnects;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  SetWorkerBinary(args.worker_bin);
  const int64_t n = ArrivalCount(*spec, args.seconds);
  FailureLog failures;

  // The timed window: every arrival untraced, or with --trace=1 a prefix
  // of them untraced (the overhead baseline) and then all of them traced.
  const int64_t untraced_n = args.trace ? TracePrefix(n) : n;
  // The benchmark's own outcome buffers, allocated (and so resident)
  // before the first set-up and kept to the end: peak_rss_mb subtracts
  // them exactly, whichever phase the peak falls in.
  std::vector<Arrival> outcomes(untraced_n);
  std::vector<Arrival> warmup(spec->warmup_arrivals);
  const double buffers_mb =
      static_cast<double>((outcomes.size() + warmup.size()) *
                          sizeof(Arrival)) /
      (1 << 20);

  // Set up kSetups times; the last deployment serves the timed window.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int k = 0; k < kSetups; ++k) {
    deployment.reset();
    const auto start = std::chrono::steady_clock::now();
    mpqopt::StatusOr<std::unique_ptr<Deployment>> made = Deploy(*spec);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    deployment = std::move(made).value();
    FailureLog warmup_failures;
    ReplayThroughService(deployment->service.get(), *spec, args.seed,
                         Stream::kWarmup, &warmup, &warmup_failures);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    if (!warmup_failures.first().empty()) {
      std::fprintf(stderr, "warm-up failed: %s\n",
                   warmup_failures.first().c_str());
      return 1;
    }
  }
  mpqopt::ExecutionBackend& backend = *deployment->service->shared_backend();
  const uint64_t rescattered_before = Rescattered(backend);

  const double wall_s =
      ReplayThroughService(deployment->service.get(), *spec, args.seed,
                           Stream::kTimed, &outcomes, &failures);
  const double peak_rss_mb = PeakRssMb() - buffers_mb;
  const std::vector<int64_t> sample =
      SerialSample(*spec, untraced_n, spec->serial_checks);

  std::vector<const Arrival*> arrivals;
  for (const Arrival& a : outcomes) arrivals.push_back(&a);
  std::vector<bool> bad(n, false);
  CheckOutcomes(arrivals, &bad);
  CheckHitSignatures(*spec, arrivals, &bad, &failures);
  const auto serial_start = std::chrono::steady_clock::now();
  CheckAgainstSerial(*spec, args.seed, sample, outcomes, &bad,
                     &failures);
  const double serial_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - serial_start)
                              .count();

  std::vector<double> latency, modeled;
  for (const Arrival* a : arrivals) {
    latency.push_back(a->latency_s);
    if (a->ok && !a->hit) modeled.push_back(a->modeled_s);
  }
  const size_t slices = SliceCount(latency.size());
  const std::vector<std::vector<double>> latency_slices =
      Slice(latency, slices);
  const double p50 = SlicedPercentile(latency_slices, 50);
  const double p90 = SlicedPercentile(latency_slices, 90);
  // Samples beyond p90 in the thinnest slice.
  int64_t beyond_p90 = static_cast<int64_t>(latency.size());
  for (const std::vector<double>& slice : latency_slices) {
    const double slice_p90 = mpqopt::obs::Percentile(slice, 90);
    beyond_p90 = std::min<int64_t>(
        beyond_p90, std::count_if(slice.begin(), slice.end(),
                                  [&](double v) { return v > slice_p90; }));
  }

  MetricList metrics;
  WorkCounts counts;
  // Set when the traced replay's work counts differ from the untraced
  // run's: no single arrival is to blame, but the run is not correct.
  bool counts_differ = false;
  if (!args.trace) {
    counts = CountWork(arrivals);
    const int64_t completed = std::count(bad.begin(), bad.end(), false);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("latency_p50_ms", p50 * 1e3, "ms");
    if (beyond_p90 >= 10) metrics.Add("latency_p90_ms", p90 * 1e3, "ms");
    metrics.Add("throughput_qps", SlicedThroughput(arrivals, bad, slices),
                "q/s");
    metrics.Add("modeled_ms_p50",
                SlicedPercentile(Slice(modeled, slices), 50) * 1e3, "ms");
    metrics.Add("net_bytes_per_query",
                counts.PerMiss(static_cast<double>(counts.net_bytes)),
                "bytes");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.Add("success_frac",
                static_cast<double>(completed) / static_cast<double>(n),
                "fraction");
  } else {
    const TracedReplay traced =
        ReplayLayers(&backend, *spec, args.seed, n, &failures);
    std::vector<const Arrival*> traced_arrivals;
    for (const TracedArrival& t : traced.arrivals) {
      traced_arrivals.push_back(&t.outcome);
    }
    CheckOutcomes(traced_arrivals, &bad);
    CheckHitSignatures(*spec, traced_arrivals, &bad, &failures);
    for (int64_t i = 0; i < untraced_n; ++i) {
      if (traced_arrivals[i]->ok && arrivals[i]->ok &&
          traced_arrivals[i]->signature != arrivals[i]->signature) {
        failures.Record(i, "traced plan differs from the untraced plan");
        bad[i] = true;
      }
    }
    const std::vector<const Arrival*> traced_prefix(
        traced_arrivals.begin(), traced_arrivals.begin() + untraced_n);
    const WorkCounts untraced_counts = CountWork(arrivals);
    const WorkCounts traced_prefix_counts = CountWork(traced_prefix);
    if (!(traced_prefix_counts == untraced_counts)) {
      failures.Record(-1, "traced work counts differ from the untraced run: " +
                              GuardJson(traced_prefix_counts) + " vs " +
                              GuardJson(untraced_counts));
      counts_differ = true;
    }
    counts = CountWork(traced_arrivals);
    AddLayerMetrics(traced, counts, deployment->slots, untraced_n,
                    Median(latency),
                    Rescattered(backend) - rescattered_before, &metrics);
    if (!args.spans_out.empty() && !WriteSpans(traced, args.spans_out)) {
      std::fprintf(stderr, "could not write %s\n", args.spans_out.c_str());
    }
  }
  deployment.reset();

  const int64_t failed = std::count(bad.begin(), bad.end(), true);
  const bool correct = failed == 0 && !counts_differ;
  std::printf("workload %s seed %" PRIu64 " trace %d\n", spec->name.c_str(),
              args.seed, args.trace ? 1 : 0);
  std::printf(
      "  arrivals/run %" PRId64 "  attempted %" PRId64 "  failed %" PRId64
      "  hits %" PRId64 "  misses %" PRId64 "  clients %d\n"
      "  untraced window %.3f s over %" PRId64 " arrivals in %zu slices, "
      "beyond-p90 %" PRId64 " per slice\n"
      "  setups %d  serial checks %zu in %.3f s\n",
      n, n, failed, counts.hits, counts.misses, spec->clients, wall_s,
      untraced_n, slices, beyond_p90, kSetups, sample.size(), serial_s);
  metrics.Print();
  if (!correct) {
    std::printf("  FAILED: %s\n", failures.first().c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s, \"guard\": %s}\n",
      correct ? "true" : "false", n, failed, metrics.Json().c_str(),
      GuardJson(counts).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::mallopt(M_ARENA_MAX, perfbench::kMallocArenas);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "--worker-bin=PATH [--spans-out=PATH]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
