// Copyright 2026 mpqopt authors.

#include "mpq/mpq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "optimizer/pruning.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"
#include "tests/overflow_query.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

MpqOptions Options(PlanSpace space, uint64_t workers) {
  MpqOptions opts;
  opts.space = space;
  opts.num_workers = workers;
  return opts;
}

TEST(MpqTest, SingleWorkerEqualsSerialOptimizer) {
  const Query q = RandomQuery(8, 1);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 1));
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

TEST(MpqTest, RejectsNonPowerOfTwoWorkers) {
  const Query q = RandomQuery(8, 2);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 3));
  EXPECT_FALSE(mpq.Optimize(q).ok());
}

TEST(MpqTest, RejectsTooManyWorkers) {
  const Query q = RandomQuery(4, 3);
  // Max workers for 4 tables linear = 2^2 = 4.
  MpqOptimizer ok_case(Options(PlanSpace::kLinear, 4));
  EXPECT_TRUE(ok_case.Optimize(q).ok());
  MpqOptimizer bad_case(Options(PlanSpace::kLinear, 8));
  EXPECT_FALSE(bad_case.Optimize(q).ok());
}

TEST(MpqTest, RejectsInvalidQuery) {
  Query q;
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 1));
  EXPECT_FALSE(mpq.Optimize(q).ok());
}

TEST(MpqTest, WorkerMainRoundTripsOnWire) {
  const Query q = RandomQuery(6, 4);
  const MpqOptions opts = Options(PlanSpace::kLinear, 4);
  const std::vector<uint8_t> request = MpqOptimizer::BuildRequest(q, 2, opts);
  StatusOr<std::vector<uint8_t>> response = MpqOptimizer::WorkerMain(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response.value().size(), 0u);
}

TEST(MpqTest, WorkerMainRejectsGarbage) {
  std::vector<uint8_t> garbage(32, 0xCD);
  EXPECT_FALSE(MpqOptimizer::WorkerMain(garbage).ok());
}

TEST(MpqTest, WorkerMainRejectsTruncatedRequest) {
  const Query q = RandomQuery(6, 5);
  std::vector<uint8_t> request =
      MpqOptimizer::BuildRequest(q, 0, Options(PlanSpace::kLinear, 2));
  request.resize(request.size() / 2);
  EXPECT_FALSE(MpqOptimizer::WorkerMain(request).ok());
}

TEST(MpqTest, NetworkBytesLinearInWorkers) {
  // Theorem 1: O(m * (b_q + b_p)). Doubling m should roughly double the
  // traffic, and traffic must not scale with the memo size.
  const Query q = RandomQuery(12, 6);
  uint64_t bytes_at[3] = {0, 0, 0};
  int i = 0;
  for (uint64_t m : {1u, 2u, 4u}) {
    MpqOptimizer mpq(Options(PlanSpace::kLinear, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    bytes_at[i++] = result.value().network_bytes;
  }
  EXPECT_GT(bytes_at[1], bytes_at[0]);
  EXPECT_GT(bytes_at[2], bytes_at[1]);
  // Within a factor ~2.5 of strict linearity (responses vary slightly).
  EXPECT_LT(bytes_at[2], bytes_at[0] * 10);
  EXPECT_GT(bytes_at[2], bytes_at[0] * 3);
}

TEST(MpqTest, MemoSizeDecreasesWithWorkers) {
  const Query q = RandomQuery(12, 7);
  int64_t prev = 0;
  for (uint64_t m : {1u, 4u, 16u, 64u}) {
    MpqOptimizer mpq(Options(PlanSpace::kLinear, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    const int64_t sets = result.value().max_worker_memo_sets;
    if (prev != 0) {
      // Two extra constraints per 4x workers: (3/4)^2 = 9/16.
      EXPECT_EQ(sets, prev * 9 / 16);
    }
    prev = sets;
  }
}

TEST(MpqTest, AllPartitionsReportEqualMemoSizes) {
  const Query q = RandomQuery(10, 8);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 16));
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  for (int64_t sets : result.value().worker_memo_sets) {
    EXPECT_EQ(sets, result.value().worker_memo_sets[0]);
  }
}

TEST(MpqTest, ReturnedPlanValidates) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const Query q = RandomQuery(9, 9);
    const uint64_t m = 8;
    MpqOptimizer mpq(Options(space, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok());
    const CostModel model(Objective::kTime);
    PlanValidationOptions vopts;
    vopts.require_left_deep = space == PlanSpace::kLinear;
    EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                             model, vopts)
                    .ok());
  }
}

TEST(MpqTest, OverflowingCostsGiveAPlanThatCostsInfinity) {
  const Query q = OverflowingChainQuery();
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const uint64_t m = UsableWorkers(q.num_tables(), space, 4);
    MpqOptimizer mpq(Options(space, m));
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().best.size(), 1u);
    const PlanNode& root = result.value().arena.node(result.value().best[0]);
    EXPECT_EQ(root.tables, q.all_tables());
    EXPECT_EQ(root.cost.time(), std::numeric_limits<double>::infinity())
        << PlanSpaceName(space) << " m=" << m;
  }
}

TEST(MpqTest, SimulatedTimeAccountsForSetupOverhead) {
  const Query q = RandomQuery(8, 10);
  MpqOptions opts = Options(PlanSpace::kLinear, 16);
  opts.network.task_setup_s = 0.1;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().simulated_seconds, 1.6);
}

TEST(MpqTest, MultiObjectiveFrontierMerged) {
  const Query q = RandomQuery(8, 11);
  MpqOptions opts = Options(PlanSpace::kLinear, 4);
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.value().best.size(), 1u);
  // Frontier plans are mutually non-dominated after the final prune.
  for (PlanId a : result.value().best) {
    for (PlanId b : result.value().best) {
      if (a == b) continue;
      EXPECT_FALSE(result.value().arena.node(a).cost.StrictlyDominates(
          result.value().arena.node(b).cost));
    }
  }
}

TEST(MpqTest, MultiObjectiveMergeCoversSerialFrontier) {
  const Query q = RandomQuery(8, 12);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1.0;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  std::vector<CostVector> reference;
  for (PlanId id : serial.value().best) {
    reference.push_back(serial.value().arena.node(id).cost);
  }

  MpqOptions opts = Options(PlanSpace::kLinear, 8);
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  std::vector<CostVector> merged;
  for (PlanId id : result.value().best) {
    merged.push_back(result.value().arena.node(id).cost);
  }
  // With alpha = 1 and exact per-partition frontiers, the merged frontier
  // must weakly cover the serial frontier.
  EXPECT_TRUE(AlphaCovers(merged, reference, 1.0 + 1e-12));
}

TEST(MpqTest, BatchedRequestsMatchPerPartitionRequests) {
  // BuildRequests serializes the query and option tail once and splices
  // per-partition buffers; the result must be byte-identical to the
  // legacy one-BuildRequest-per-partition loop, or workers would decode
  // different tasks depending on which master path scattered them.
  const Query q = RandomQuery(10, 21);
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    MpqOptions opts = Options(PlanSpace::kBushy, 8);
    opts.objective = objective;
    opts.interesting_orders = (objective == Objective::kTime);
    const std::vector<std::vector<uint8_t>> batched =
        MpqOptimizer::BuildRequests(q, opts);
    ASSERT_EQ(batched.size(), 8u);
    for (uint64_t part = 0; part < 8; ++part) {
      EXPECT_EQ(batched[part], MpqOptimizer::BuildRequest(q, part, opts))
          << "partition " << part;
    }
  }
}

std::vector<uint8_t> SerializedBest(const MpqResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

std::vector<std::vector<uint8_t>> WorkerResponses(const Query& q,
                                                  const MpqOptions& opts) {
  std::vector<std::vector<uint8_t>> responses;
  for (const std::vector<uint8_t>& request :
       MpqOptimizer::BuildRequests(q, opts)) {
    StatusOr<std::vector<uint8_t>> response =
        MpqOptimizer::WorkerMain(request);
    MPQOPT_CHECK(response.ok());
    responses.push_back(std::move(response).value());
  }
  return responses;
}

/// The textbook Phase 3, written out as the oracle for FinalizeResponses:
/// every response's report fields and plans decoded one plan at a time by
/// the Status-returning DeserializePlan into one shared arena, each plan
/// pruned as it is read (strict < on time, or ParetoInsert with alpha).
MpqResult ReferenceFinalize(
    const std::vector<std::vector<uint8_t>>& responses,
    const MpqOptions& opts) {
  MpqResult out;
  const auto cost_of = [&out](PlanId id) -> const CostVector& {
    return out.arena.node(id).cost;
  };
  for (const std::vector<uint8_t>& response : responses) {
    ByteReader reader(response);
    uint64_t sets = 0, splits = 0, costed = 0;
    double seconds = 0;
    MPQOPT_CHECK(reader.ReadU64(&sets).ok());
    MPQOPT_CHECK(reader.ReadU64(&splits).ok());
    MPQOPT_CHECK(reader.ReadU64(&costed).ok());
    MPQOPT_CHECK(reader.ReadDouble(&seconds).ok());
    out.worker_seconds.push_back(seconds);
    out.worker_memo_sets.push_back(static_cast<int64_t>(sets));
    out.total_splits += static_cast<int64_t>(splits);
    out.total_plans_costed += static_cast<int64_t>(costed);
    out.max_worker_seconds = std::max(out.max_worker_seconds, seconds);
    out.max_worker_memo_sets =
        std::max(out.max_worker_memo_sets, static_cast<int64_t>(sets));
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

/// n identical tables joined as a clique, with power-of-two cardinalities
/// and selectivities so every cardinality product is exact: mirror-image
/// join orders cost the same to the last bit, so every partition's best
/// plan ties on time with every other's.
Query TiedCliqueQuery(int n) {
  std::vector<TableInfo> tables(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    tables[static_cast<size_t>(t)].cardinality = 1024;
    tables[static_cast<size_t>(t)].attribute_domains = {64};
    tables[static_cast<size_t>(t)].name = "T" + std::to_string(t);
  }
  std::vector<JoinPredicate> predicates;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      predicates.push_back({a, 0, b, 0, 1.0 / 64});
    }
  }
  return Query(std::move(tables), std::move(predicates));
}

TEST(MpqTest, FinalizeMatchesTextbookDecodeAndPrune) {
  // FinalizeResponses decodes through the raw-cursor plan decoder into
  // one scratch arena and copies only the winners out; the oracle decodes
  // plan by plan and keeps everything. Both must pick byte-identical
  // plans, in the same frontier order, with the same counters.
  struct Case {
    const char* name;
    PlanSpace space;
    Query query;
    uint64_t workers;
  };
  const auto generated = [](JoinGraphShape graph, int n) {
    GeneratorOptions generator;
    generator.shape = graph;
    return QueryGenerator(generator, 1).Generate(n);
  };
  // Bushy m = 64 needs 18 tables (2^floor(n/3) partitions), a DP too
  // slow for a unit test; linear covers m = 64 at 12 tables. Bushy m = 16
  // uses a chain: a 12-table star's exact (alpha = 1) bushy frontiers
  // take seconds to compute.
  const Case cases[] = {
      {"linear star", PlanSpace::kLinear, generated(JoinGraphShape::kStar, 10),
       1},
      {"linear star", PlanSpace::kLinear, generated(JoinGraphShape::kStar, 10),
       16},
      {"linear star", PlanSpace::kLinear, generated(JoinGraphShape::kStar, 12),
       64},
      {"bushy star", PlanSpace::kBushy, generated(JoinGraphShape::kStar, 9), 1},
      {"bushy chain", PlanSpace::kBushy, generated(JoinGraphShape::kChain, 12),
       16},
      {"linear tied clique", PlanSpace::kLinear, TiedCliqueQuery(8), 16},
  };
  for (const Case& c : cases) {
    const Query& q = c.query;
    for (Objective objective :
         {Objective::kTime, Objective::kTimeAndBuffer}) {
      for (double alpha : {1.0, 1.2, 10.0}) {
        MpqOptions opts = Options(c.space, c.workers);
        opts.objective = objective;
        opts.alpha = alpha;
        const std::vector<std::vector<uint8_t>> responses =
            WorkerResponses(q, opts);
        StatusOr<MpqResult> result =
            MpqOptimizer::FinalizeResponses(responses, opts);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const MpqResult reference = ReferenceFinalize(responses, opts);
        const MpqResult& got = result.value();
        SCOPED_TRACE(testing::Message()
                     << c.name << " n=" << q.num_tables() << " m=" << c.workers
                     << " objective=" << static_cast<int>(objective)
                     << " alpha=" << alpha);
        EXPECT_EQ(SerializedBest(got), SerializedBest(reference));
        EXPECT_EQ(got.total_splits, reference.total_splits);
        EXPECT_EQ(got.total_plans_costed, reference.total_plans_costed);
        EXPECT_EQ(got.worker_seconds, reference.worker_seconds);
        EXPECT_EQ(got.worker_memo_sets, reference.worker_memo_sets);
        EXPECT_EQ(got.max_worker_seconds, reference.max_worker_seconds);
        EXPECT_EQ(got.max_worker_memo_sets, reference.max_worker_memo_sets);
        // Only the winning plans are materialized in the result arena.
        size_t nodes = 0;
        for (PlanId id : got.best) {
          nodes += static_cast<size_t>(2 * CountJoins(got.arena, id) + 1);
        }
        EXPECT_EQ(got.arena.size(), nodes);
      }
    }
  }
}

TEST(MpqTest, TiedCliquePartitionsTieOnTimeWithDifferentPlans) {
  // The oracle's tied-clique case exercises the prune's tie-breaking only
  // if partitions really return different plans of equal time.
  const MpqOptions opts = Options(PlanSpace::kLinear, 16);
  const std::vector<std::vector<uint8_t>> responses =
      WorkerResponses(TiedCliqueQuery(8), opts);
  StatusOr<MpqResult> first =
      MpqOptimizer::FinalizeResponses({responses.front()}, opts);
  StatusOr<MpqResult> last =
      MpqOptimizer::FinalizeResponses({responses.back()}, opts);
  ASSERT_TRUE(first.ok() && last.ok());
  EXPECT_NE(SerializedBest(first.value()), SerializedBest(last.value()));
  EXPECT_EQ(first.value().arena.node(first.value().best[0]).cost.time(),
            last.value().arena.node(last.value().best[0]).cost.time());
}

TEST(MpqTest, FinalizeSurfacesTheFirstBadResponseByPartitionIndex) {
  const Query q = RandomQuery(8, 23);
  MpqOptions opts = Options(PlanSpace::kLinear, 4);
  std::vector<std::vector<uint8_t>> responses = WorkerResponses(q, opts);
  // Corrupt partitions 1 and 3 differently: the reported failure must be
  // exactly the one partition 1's response produces on its own.
  responses[1] = {0xff, 0xff};
  responses[3] = {0xff};
  StatusOr<MpqResult> alone =
      MpqOptimizer::FinalizeResponses({responses[1]}, opts);
  ASSERT_FALSE(alone.ok());
  StatusOr<MpqResult> result =
      MpqOptimizer::FinalizeResponses(responses, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), alone.status().code());
  EXPECT_EQ(result.status().ToString(), alone.status().ToString());
  // A response that decodes but carries no plan set is a failure too.
  const std::vector<uint8_t> good = responses[0];
  responses[1] = std::vector<uint8_t>(good.begin(), good.begin() + 32);
  StatusOr<MpqResult> truncated =
      MpqOptimizer::FinalizeResponses(responses, opts);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().ToString(),
            MpqOptimizer::FinalizeResponses({responses[1]}, opts)
                .status()
                .ToString());
}

TEST(MpqTest, WorkerSecondsPopulatedPerPartition) {
  const Query q = RandomQuery(10, 13);
  MpqOptimizer mpq(Options(PlanSpace::kLinear, 8));
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().worker_seconds.size(), 8u);
  double max_seen = 0;
  for (double s : result.value().worker_seconds) {
    EXPECT_GE(s, 0);
    max_seen = std::max(max_seen, s);
  }
  EXPECT_DOUBLE_EQ(max_seen, result.value().max_worker_seconds);
}

/// A worker response with the report's measured seconds (its fourth
/// field, after three u64 counters) zeroed: every other byte depends on
/// the request alone.
std::vector<uint8_t> WithoutSeconds(std::vector<uint8_t> response) {
  constexpr size_t kSecondsOffset = 3 * sizeof(uint64_t);
  if (response.size() >= kSecondsOffset + sizeof(double)) {
    std::fill(response.begin() + kSecondsOffset,
              response.begin() + kSecondsOffset + sizeof(double), 0);
  }
  return response;
}

/// WorkerMain on a thread of its own, whose caches start empty.
StatusOr<std::vector<uint8_t>> WorkerMainOnFreshThread(
    const std::vector<uint8_t>& request) {
  StatusOr<std::vector<uint8_t>> response = Status::Internal("not run");
  std::thread([&] { response = MpqOptimizer::WorkerMain(request); }).join();
  return response;
}

TEST(MpqTest, WorkerCachesAnswerLikeAFreshThread) {
  // Three 8-table queries whose encodings differ in eight bytes: the
  // second doubles one table's cardinality, the third halves one
  // selectivity. All 16 requests of each, interleaved, must get the
  // bytes a fresh thread computes, on one thread (whose query cache
  // then serves most tasks) and through the default pool.
  const Query base = RandomQuery(8, 31);
  std::vector<TableInfo> tables = base.tables();
  tables[5].cardinality *= 2;
  std::vector<JoinPredicate> predicates = base.predicates();
  predicates[3].selectivity /= 2;
  const Query queries[] = {base, Query(tables, base.predicates()),
                           Query(base.tables(), predicates)};
  const MpqOptions opts = Options(PlanSpace::kLinear, 16);
  std::vector<std::vector<uint8_t>> requests;
  for (uint64_t part = 0; part < opts.num_workers; ++part) {
    for (const Query& q : queries) {
      requests.push_back(MpqOptimizer::BuildRequest(q, part, opts));
    }
  }
  std::vector<std::vector<uint8_t>> expected;
  for (const std::vector<uint8_t>& request : requests) {
    StatusOr<std::vector<uint8_t>> fresh = WorkerMainOnFreshThread(request);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    expected.push_back(WithoutSeconds(std::move(fresh).value()));
  }
  // The three queries must answer differently, or a wrong hit could pass.
  for (size_t i = 0; i < expected.size(); i += 3) {
    EXPECT_NE(expected[i], expected[i + 1]) << "partition " << i / 3;
    EXPECT_NE(expected[i], expected[i + 2]) << "partition " << i / 3;
    EXPECT_NE(expected[i + 1], expected[i + 2]) << "partition " << i / 3;
  }

  std::thread([&] {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < requests.size(); ++i) {
        StatusOr<std::vector<uint8_t>> got =
            MpqOptimizer::WorkerMain(requests[i]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(WithoutSeconds(std::move(got).value()), expected[i])
            << "pass " << pass << " request " << i;
      }
    }
  }).join();

  const std::vector<WorkerTask> tasks(requests.size(),
                                      WorkerTask(&MpqOptimizer::WorkerMain));
  StatusOr<RoundResult> round = DefaultBackend()->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round.value().responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(WithoutSeconds(round.value().responses[i]), expected[i])
        << "request " << i;
  }
}

TEST(MpqTest, WorkerCacheHitsStillCheckTheRequestTail) {
  // After a task has cached its query and partition index, requests that
  // share the query's bytes still fail every check of their own tail.
  const Query q = RandomQuery(8, 37);
  const MpqOptions opts = Options(PlanSpace::kLinear, 16);
  const std::vector<uint8_t> request = MpqOptimizer::BuildRequest(q, 5, opts);
  ByteWriter prefix;
  q.Serialize(&prefix);
  std::thread([&] {
    ASSERT_TRUE(MpqOptimizer::WorkerMain(request).ok());

    for (size_t keep : {prefix.size(), prefix.size() + 3,
                        request.size() - 1}) {
      const std::vector<uint8_t> truncated(request.begin(),
                                           request.begin() + keep);
      StatusOr<std::vector<uint8_t>> got = MpqOptimizer::WorkerMain(truncated);
      ASSERT_FALSE(got.ok()) << keep;
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << keep;
    }

    std::vector<uint8_t> bad_space = request;
    bad_space[prefix.size() + 2 * sizeof(uint64_t)] = 7;  // the space tag
    StatusOr<std::vector<uint8_t>> got = MpqOptimizer::WorkerMain(bad_space);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);

    // Partition 5 of 16 over 8 tables holds 2^8 (3/4)^4 = 81 sets.
    MpqOptions tight = opts;
    tight.max_memo_entries = 80;
    got = MpqOptimizer::WorkerMain(MpqOptimizer::BuildRequest(q, 5, tight));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
    tight.max_memo_entries = 81;
    EXPECT_TRUE(
        MpqOptimizer::WorkerMain(MpqOptimizer::BuildRequest(q, 5, tight))
            .ok());
  }).join();
}

}  // namespace
}  // namespace mpqopt
