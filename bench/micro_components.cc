// Copyright 2026 mpqopt authors.
//
// Microbenchmarks (google-benchmark) of the hot optimizer components:
// table-set operations, partition-index rank lookups, the DP walk's set
// and split enumeration, cardinality estimation, Pareto insertion,
// message serialization, and whole worker tasks and rounds.

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "catalog/generator.h"
#include "common/rng.h"
#include "cost/cardinality.h"
#include "mpq/mpq.h"
#include "optimizer/dp.h"
#include "optimizer/partition_dp.h"
#include "optimizer/pruning.h"
#include "partition/partition_index.h"
#include "plan/plan_serde.h"

namespace mpqopt {
namespace {

Query TestQuery(int n, JoinGraphShape shape = JoinGraphShape::kStar) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, 7);
  return gen.Generate(n);
}

ConstraintSet TestPartition(int n, PlanSpace space, uint64_t partition,
                            uint64_t m) {
  StatusOr<ConstraintSet> c =
      ConstraintSet::FromPartitionId(n, space, partition, m);
  MPQOPT_CHECK(c.ok());
  return std::move(c).value();
}

ConstraintSet TestConstraints(int n, PlanSpace space, int l) {
  return TestPartition(n, space, 0, uint64_t{1} << l);
}

void BM_TableSetIteration(benchmark::State& state) {
  const TableSet s(0x5a5a5a5a5a5a5a5aULL);
  for (auto _ : state) {
    int sum = 0;
    for (int t : s) sum += t;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TableSetIteration);

void BM_SubsetEnumeration(benchmark::State& state) {
  const TableSet s = TableSet::AllTables(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SubsetEnumerator it(s);
    int64_t count = 0;
    while (it.Next()) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SubsetEnumeration)->Arg(8)->Arg(12)->Arg(16);

void BM_PartitionIndexRank(benchmark::State& state) {
  const int n = 20;
  const PartitionIndex idx(
      n, TestConstraints(n, PlanSpace::kLinear,
                         static_cast<int>(state.range(0))));
  Rng rng(5);
  std::vector<TableSet> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(
        TableSet(rng.NextUint64() & ((uint64_t{1} << n) - 1)));
  }
  for (auto _ : state) {
    int64_t acc = 0;
    for (const TableSet s : probes) acc += idx.Rank(s);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * probes.size());
}
BENCHMARK(BM_PartitionIndexRank)->Arg(0)->Arg(5)->Arg(10);

/// The walk's outer loop alone: every admissible set of two or more
/// tables, in the order WalkPartition visits them.
void BM_EnumerateAdmissibleSets(benchmark::State& state) {
  const int n = 18;
  const PartitionIndex idx(
      n, TestConstraints(n, PlanSpace::kLinear,
                         static_cast<int>(state.range(0))));
  for (auto _ : state) {
    int64_t count = 0;
    idx.ForEachSet([&](TableSet u, int64_t, int64_t, int) {
      const uint64_t bits = u.bits();
      if ((bits & (bits - 1)) != 0) ++count;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EnumerateAdmissibleSets)->Arg(0)->Arg(4)->Arg(8);

/// A DP that keeps nothing: it sums the operand ranks the walk hands it
/// (a linear split's right operand is its inner table), so a bench over
/// WalkPartition times the DP's set and split enumeration and the walk's
/// incremental cardinality fold alone.
class RankSumDp {
 public:
  struct State {};
  State Begin(TableSet, double) const { return {}; }
  void Join(State*, TableSet, int64_t /*left_rank*/, int64_t left,
            int64_t right) {
    sum_ += left + right;
  }
  void End(State*, int64_t) {}
  int64_t Entry(int64_t rank) const { return rank; }
  int64_t Scan(int t) const { return t; }
  int64_t sum() const { return sum_; }

 private:
  int64_t sum_ = 0;
};

/// WalkPartition over one bushy partition; "splits" is its split count.
void BM_BushySplitGeneration(benchmark::State& state) {
  const int n = 12;
  const Query q = TestQuery(n);
  const PartitionIndex idx(
      n, TestConstraints(n, PlanSpace::kBushy,
                         static_cast<int>(state.range(0))));
  int64_t splits = 0;
  for (auto _ : state) {
    RankSumDp dp;
    splits = WalkPartition(q, idx, &dp);
    benchmark::DoNotOptimize(dp.sum());
  }
  state.counters["splits"] = static_cast<double>(splits);
}
BENCHMARK(BM_BushySplitGeneration)->Arg(0)->Arg(2)->Arg(4);

/// WalkPartition over one linear partition; "splits" is its split count.
void BM_LinearSplitGeneration(benchmark::State& state) {
  const int n = 16;
  const Query q = TestQuery(n);
  const PartitionIndex idx(
      n, TestConstraints(n, PlanSpace::kLinear,
                         static_cast<int>(state.range(0))));
  int64_t splits = 0;
  for (auto _ : state) {
    RankSumDp dp;
    splits = WalkPartition(q, idx, &dp);
    benchmark::DoNotOptimize(dp.sum());
  }
  state.counters["splits"] = static_cast<double>(splits);
}
BENCHMARK(BM_LinearSplitGeneration)->Arg(0)->Arg(2)->Arg(4);

/// One estimate per probe over 16,384 distinct random subsets of a
/// 20-table query. Like the DP's stream of sets, they are too many, in too
/// random an order, for the branch predictor to learn which tables each
/// probe holds. range(0) is the JoinGraphShape (0 chain, 1 star, 3 clique).
void BM_CardinalityEstimation(benchmark::State& state) {
  const int n = 20;
  GeneratorOptions opts;
  opts.shape = static_cast<JoinGraphShape>(state.range(0));
  QueryGenerator gen(opts, 7);
  const Query q = gen.Generate(n);
  const CardinalityEstimator est(q);
  Rng rng(9);
  std::unordered_set<uint64_t> seen;
  std::vector<TableSet> probes;
  while (probes.size() < 16384) {
    const uint64_t bits = rng.NextUint64() & ((uint64_t{1} << n) - 1);
    if (bits != 0 && seen.insert(bits).second) probes.push_back(TableSet(bits));
  }
  for (auto _ : state) {
    double acc = 0;
    for (const TableSet s : probes) acc += est.Cardinality(s);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * probes.size());
  state.SetLabel(JoinGraphShapeName(opts.shape));
}
BENCHMARK(BM_CardinalityEstimation)->Arg(0)->Arg(1)->Arg(3);

void BM_ParetoInsert(benchmark::State& state) {
  Rng rng(11);
  std::vector<CostVector> points;
  for (int i = 0; i < 512; ++i) {
    points.push_back(CostVector::TimeBuffer(rng.UniformDouble() * 1e6 + 1,
                                            rng.UniformDouble() * 1e6 + 1));
  }
  const auto identity = [](const CostVector& c) -> const CostVector& {
    return c;
  };
  const double alpha = static_cast<double>(state.range(0));
  for (auto _ : state) {
    std::vector<CostVector> frontier;
    for (const CostVector& c : points) {
      ParetoInsert(&frontier, c, identity, alpha);
    }
    benchmark::DoNotOptimize(frontier.size());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_ParetoInsert)->Arg(1)->Arg(10);

void BM_QuerySerialization(benchmark::State& state) {
  const Query q = TestQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ByteWriter w;
    q.Serialize(&w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_QuerySerialization)->Arg(8)->Arg(24);

/// One partition's request built by the master, then decoded the way a
/// worker decodes a query it has not seen: Query::Deserialize, which
/// validates, and the partition's constraints.
void BM_RequestBuildAndWorkerDecode(benchmark::State& state) {
  const Query q = TestQuery(10);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;
  for (auto _ : state) {
    const std::vector<uint8_t> request =
        MpqOptimizer::BuildRequest(q, 1, opts);
    ByteReader reader(request);
    StatusOr<Query> decoded = Query::Deserialize(&reader);
    MPQOPT_CHECK(decoded.ok());
    uint64_t partition = 0;
    uint64_t partitions = 0;
    MPQOPT_CHECK(reader.ReadU64(&partition).ok());
    MPQOPT_CHECK(reader.ReadU64(&partitions).ok());
    StatusOr<ConstraintSet> constraints = ConstraintSet::FromPartitionId(
        decoded.value().num_tables(), opts.space, partition, partitions);
    MPQOPT_CHECK(constraints.ok());
    benchmark::DoNotOptimize(constraints.value().num_constraints());
  }
}
BENCHMARK(BM_RequestBuildAndWorkerDecode);

/// The worker side of one small serving round on one thread: every
/// WorkerMain call of an 8-table star at m = 16, a query this thread has
/// not decoded lately in each iteration (the requests of 64 queries are
/// built up front and cycled). The per-task fixed cost, decode, index and
/// response, is most of such a task; "splits" is the round's DP splits.
void BM_WorkerSmallRound(benchmark::State& state) {
  constexpr int kTables = 8;
  constexpr int kQueries = 64;
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 16;
  GeneratorOptions generator;
  generator.shape = JoinGraphShape::kStar;
  std::vector<std::vector<std::vector<uint8_t>>> rounds;
  for (int i = 0; i < kQueries; ++i) {
    const Query q = QueryGenerator(generator, 1000 + i).Generate(kTables);
    rounds.push_back(MpqOptimizer::BuildRequests(q, opts));
  }
  int64_t splits = 0;
  for (const std::vector<uint8_t>& request : rounds[0]) {
    StatusOr<std::vector<uint8_t>> response = MpqOptimizer::WorkerMain(request);
    MPQOPT_CHECK(response.ok());
    ByteReader reader(response.value());
    uint64_t counter = 0;
    MPQOPT_CHECK(reader.ReadU64(&counter).ok());  // admissible sets
    MPQOPT_CHECK(reader.ReadU64(&counter).ok());  // splits
    splits += static_cast<int64_t>(counter);
  }
  size_t next = 1;
  for (auto _ : state) {
    size_t bytes = 0;
    for (const std::vector<uint8_t>& request : rounds[next]) {
      StatusOr<std::vector<uint8_t>> response =
          MpqOptimizer::WorkerMain(request);
      MPQOPT_CHECK(response.ok());
      bytes += response.value().size();
    }
    benchmark::DoNotOptimize(bytes);
    next = (next + 1) % rounds.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.num_workers));
  state.counters["splits"] = static_cast<double>(splits);
}
BENCHMARK(BM_WorkerSmallRound);

/// Master Phase-1 scatter, the seed's way: one full BuildRequest per
/// partition, re-serializing the query m times.
void BM_MasterScatterPerPartition(benchmark::State& state) {
  const Query q = TestQuery(static_cast<int>(state.range(0)));
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = static_cast<uint64_t>(state.range(1));
  for (auto _ : state) {
    size_t bytes = 0;
    for (uint64_t part = 0; part < opts.num_workers; ++part) {
      bytes += MpqOptimizer::BuildRequest(q, part, opts).size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.num_workers));
}
BENCHMARK(BM_MasterScatterPerPartition)->Args({14, 64})->Args({17, 64});

/// Master Phase-1 scatter, batched: the query and option tail serialize
/// once, each request is two splices + the partition id.
void BM_MasterScatterBatch(benchmark::State& state) {
  const Query q = TestQuery(static_cast<int>(state.range(0)));
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = static_cast<uint64_t>(state.range(1));
  for (auto _ : state) {
    const std::vector<std::vector<uint8_t>> requests =
        MpqOptimizer::BuildRequests(q, opts);
    benchmark::DoNotOptimize(requests.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.num_workers));
}
BENCHMARK(BM_MasterScatterBatch)->Args({14, 64})->Args({17, 64});

/// Pre-computed worker responses for the finalize benchmarks (the DP is
/// orders of magnitude more expensive than the decode being measured).
std::vector<std::vector<uint8_t>> WorkerResponses(const Query& q,
                                                  const MpqOptions& opts) {
  std::vector<std::vector<uint8_t>> responses;
  responses.reserve(opts.num_workers);
  const std::vector<std::vector<uint8_t>> requests =
      MpqOptimizer::BuildRequests(q, opts);
  for (const std::vector<uint8_t>& request : requests) {
    StatusOr<std::vector<uint8_t>> response = MpqOptimizer::WorkerMain(request);
    MPQOPT_CHECK(response.ok());
    responses.push_back(std::move(response).value());
  }
  return responses;
}

/// Master Phase-3: decode m responses + FinalPrune on the calling thread.
/// Args: {n, m, objective} with objective 0 = kTime, 1 = kTimeAndBuffer.
/// n=8, m=16, kTime is the serving shape of perfbench's small8 workloads;
/// n=14, m=64 with frontiers is where the decode is heaviest.
void BM_MasterFinalize(benchmark::State& state) {
  const Query q = TestQuery(static_cast<int>(state.range(0)));
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.objective = state.range(2) != 0 ? Objective::kTimeAndBuffer
                                       : Objective::kTime;
  opts.alpha = 1.2;
  opts.num_workers = static_cast<uint64_t>(state.range(1));
  const std::vector<std::vector<uint8_t>> responses =
      WorkerResponses(q, opts);
  for (auto _ : state) {
    StatusOr<MpqResult> result =
        MpqOptimizer::FinalizeResponses(responses, opts);
    MPQOPT_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().best.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.num_workers));
}
BENCHMARK(BM_MasterFinalize)->Args({8, 16, 0})->Args({14, 64, 1});

/// The seed's master Phase 3, reproduced through the public APIs for the
/// before/after A/B: one DeserializePlan call per plan into one shared
/// arena, then the same final prune. The production path is
/// FinalizeResponses (one DeserializePlanSet call per response into a
/// scratch arena reserved once, winners copied out). Both decode with the
/// one plan decoder; this stays in the bench as the baseline shape.
struct SeedFinalizeResult {
  PlanArena arena;
  std::vector<PlanId> best;
};

SeedFinalizeResult SeedFinalize(
    const std::vector<std::vector<uint8_t>>& responses,
    const MpqOptions& opts) {
  SeedFinalizeResult out;
  const auto cost_of = [&out](PlanId id) -> const CostVector& {
    return out.arena.node(id).cost;
  };
  for (const std::vector<uint8_t>& response : responses) {
    ByteReader reader(response);
    uint64_t counter = 0;
    double seconds = 0;
    for (int i = 0; i < 3; ++i) MPQOPT_CHECK(reader.ReadU64(&counter).ok());
    MPQOPT_CHECK(reader.ReadDouble(&seconds).ok());
    uint32_t count = 0;
    MPQOPT_CHECK(reader.ReadU32(&count).ok());
    for (uint32_t i = 0; i < count; ++i) {
      StatusOr<PlanId> id = DeserializePlan(&reader, &out.arena);
      MPQOPT_CHECK(id.ok());
      if (opts.objective == Objective::kTime) {
        if (out.best.empty() ||
            cost_of(id.value()).time() < cost_of(out.best[0]).time()) {
          out.best.assign(1, id.value());
        }
      } else {
        ParetoInsert(&out.best, id.value(), cost_of, opts.alpha);
      }
    }
  }
  return out;
}

/// The full master hot path (Phase 1 serialize + Phase 3 finalize),
/// before vs after: range(1) = 0 runs the seed's shape (per-partition
/// serialize, per-plan slow decode into a shared arena), 1 runs the
/// batched scatter and the production FinalizeResponses. The ratio of
/// the two is the PR's headline. range(2) selects the objective: 0 =
/// kTime (one plan per response — the default serving shape), 1 =
/// kTimeAndBuffer (frontier responses, heavier decode).
void BM_MasterSerializeFinalize(benchmark::State& state) {
  const Query q = TestQuery(static_cast<int>(state.range(0)));
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.objective = state.range(2) != 0 ? Objective::kTimeAndBuffer
                                       : Objective::kTime;
  opts.alpha = 10.0;  // paper default: compact frontiers at every n
  opts.num_workers = 64;
  const std::vector<std::vector<uint8_t>> responses =
      WorkerResponses(q, opts);
  const bool batched = state.range(1) != 0;
  for (auto _ : state) {
    size_t bytes = 0;
    if (batched) {
      const std::vector<std::vector<uint8_t>> requests =
          MpqOptimizer::BuildRequests(q, opts);
      bytes = requests.size();
      StatusOr<MpqResult> result =
          MpqOptimizer::FinalizeResponses(responses, opts);
      MPQOPT_CHECK(result.ok());
      bytes += result.value().best.size();
    } else {
      for (uint64_t part = 0; part < opts.num_workers; ++part) {
        bytes += MpqOptimizer::BuildRequest(q, part, opts).size();
      }
      const SeedFinalizeResult result = SeedFinalize(responses, opts);
      bytes += result.best.size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opts.num_workers));
}
BENCHMARK(BM_MasterSerializeFinalize)
    ->Args({14, 0, 0})
    ->Args({14, 1, 0})
    ->Args({17, 0, 0})
    ->Args({17, 1, 0})
    ->Args({17, 0, 1})
    ->Args({17, 1, 1});

/// End-to-end worker task: decode + constrained DP + encode, for
/// partition 3 of m = 16, over a star query or, in the cases named
/// "clique", a clique. The request repeats, so from the second iteration
/// on the query and the partition index come from this thread's caches
/// (BM_WorkerSmallRound times the misses). range(0) is the table count,
/// range(1) selects the plan space (0 = linear, 1 = bushy), and range(2)
/// is 0 for the single-objective DP or ten times alpha for the
/// time+buffer DP. The "splits" counter is the DP's splits per task
/// (DpStats::splits_tried), so the JSON records carry ns per split next
/// to ns per task.
void BM_WorkerFullOptimization(benchmark::State& state,
                               JoinGraphShape shape) {
  const int n = static_cast<int>(state.range(0));
  const Query q = TestQuery(n, shape);
  MpqOptions opts;
  opts.space = state.range(1) != 0 ? PlanSpace::kBushy : PlanSpace::kLinear;
  if (state.range(2) != 0) {
    opts.objective = Objective::kTimeAndBuffer;
    opts.alpha = static_cast<double>(state.range(2)) / 10;
  }
  opts.num_workers = 16;
  const uint64_t partition = 3;
  const std::vector<uint8_t> request =
      MpqOptimizer::BuildRequest(q, partition, opts);
  DpConfig config;
  config.space = opts.space;
  config.objective = opts.objective;
  config.alpha = opts.alpha;
  StatusOr<DpResult> dp = RunPartitionDp(
      q, TestPartition(n, opts.space, partition, opts.num_workers), config);
  MPQOPT_CHECK(dp.ok());
  for (auto _ : state) {
    StatusOr<std::vector<uint8_t>> response =
        MpqOptimizer::WorkerMain(request);
    MPQOPT_CHECK(response.ok());
    benchmark::DoNotOptimize(response.value().size());
  }
  state.counters["splits"] =
      static_cast<double>(dp.value().stats.splits_tried);
}
void BM_WorkerFullOptimization(benchmark::State& state) {
  BM_WorkerFullOptimization(state, JoinGraphShape::kStar);
}
BENCHMARK(BM_WorkerFullOptimization)
    ->Args({10, 0, 0})
    ->Args({14, 0, 0})
    ->Args({16, 0, 0})
    ->Args({17, 0, 0})
    ->Args({12, 1, 0})
    ->Args({12, 1, 10})
    ->Args({12, 1, 12})
    ->Args({12, 1, 100});
// A clique has a predicate between every two tables, so the cardinality
// fold is the largest share of its DP.
BENCHMARK_CAPTURE(BM_WorkerFullOptimization, clique, JoinGraphShape::kClique)
    ->Args({16, 0, 0});

/// One BenchJsonWriter record per run (bench name with its args as the
/// config, ns/iter as the metric), and every report passed on to the
/// display reporter that --benchmark_format selects.
class JsonCaptureReporter : public benchmark::BenchmarkReporter {
 public:
  JsonCaptureReporter(BenchJsonWriter* json,
                      benchmark::BenchmarkReporter* display)
      : json_(json), display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const size_t slash = name.find('/');
      const std::string bench =
          slash == std::string::npos ? name : name.substr(0, slash);
      const std::string config =
          slash == std::string::npos ? "" : name.substr(slash + 1);
      const double iters = static_cast<double>(run.iterations);
      if (iters > 0) {
        json_->Add(bench, config, "real_time",
                   run.real_accumulated_time / iters * 1e9, "ns/iter");
        if (run.counters.find("items_per_second") != run.counters.end()) {
          json_->Add(bench, config, "items_per_second",
                     run.counters.at("items_per_second"), "items/s");
        }
        const auto splits = run.counters.find("splits");
        if (splits != run.counters.end() && splits->second.value > 0) {
          json_->Add(bench, config, "ns_per_split",
                     run.real_accumulated_time / iters * 1e9 /
                         splits->second.value,
                     "ns/split");
        }
      }
    }
    display_->ReportRuns(reports);
  }

  void Finalize() override { display_->Finalize(); }

 private:
  BenchJsonWriter* json_;
  benchmark::BenchmarkReporter* display_;
};

}  // namespace
}  // namespace mpqopt

int main(int argc, char** argv) {
  const std::string json_path =
      mpqopt::BenchJsonWriter::ParseFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mpqopt::BenchJsonWriter json;
  // The library owns the default display reporter.
  mpqopt::JsonCaptureReporter reporter(
      &json, benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}
