// Copyright 2026 mpqopt authors.
//
// Randomized property tests sweeping seeds and sizes (the "fuzz light"
// layer on top of the example-based suites).

#include <gtest/gtest.h>

#include <map>

#include "catalog/generator.h"
#include "common/rng.h"
#include "cost/cardinality.h"
#include "mpq/mpq.h"
#include "optimizer/dp.h"
#include "partition/partition_index.h"
#include "plan/plan_serde.h"

namespace mpqopt {
namespace {

Query MakeQuery(int n, JoinGraphShape shape, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, QuerySerializationIsIdentityOnRandomQueries) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(1, 20));
  const auto shape = static_cast<JoinGraphShape>(rng.UniformInt(0, 3));
  const Query q = MakeQuery(n, shape, GetParam());
  ByteWriter w;
  q.Serialize(&w);
  ByteReader r(w.buffer());
  StatusOr<Query> back = Query::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  ByteWriter w2;
  back.value().Serialize(&w2);
  EXPECT_EQ(w.buffer(), w2.buffer());  // serialize∘deserialize = identity
}

TEST_P(SeededProperty, PartitionOptimaAreUpperBoundsOnOptimum) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = static_cast<int>(rng.UniformInt(6, 10));
  const Query q = MakeQuery(n, JoinGraphShape::kStar, seed);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  const double optimum =
      serial.value().arena.node(serial.value().best[0]).cost.time();
  const uint64_t m = UsableWorkers(n, PlanSpace::kLinear, 8);
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t part = 0; part < m; ++part) {
    StatusOr<ConstraintSet> c =
        ConstraintSet::FromPartitionId(n, PlanSpace::kLinear, part, m);
    ASSERT_TRUE(c.ok());
    StatusOr<DpResult> result = RunPartitionDp(q, c.value(), config);
    ASSERT_TRUE(result.ok());
    const double cost =
        result.value().arena.node(result.value().best[0]).cost.time();
    EXPECT_GE(cost, optimum * (1 - 1e-12));
    best = std::min(best, cost);
  }
  EXPECT_NEAR(best / optimum, 1.0, 1e-12);
}

TEST_P(SeededProperty, PlanSerdeRoundTripsOptimalPlans) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xabcdef);
  const int n = static_cast<int>(rng.UniformInt(2, 10));
  const Query q = MakeQuery(n, JoinGraphShape::kChain, seed);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  ByteWriter w;
  SerializePlan(result.value().arena, result.value().best[0], &w);
  PlanArena arena;
  ByteReader r(w.buffer());
  StatusOr<PlanId> back = DeserializePlan(&r, &arena);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(PlanToString(arena, back.value()),
            PlanToString(result.value().arena, result.value().best[0]));
}

TEST_P(SeededProperty, RankBijectiveOnRandomPartitions) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5555);
  const auto space =
      rng.UniformInt(0, 1) == 0 ? PlanSpace::kLinear : PlanSpace::kBushy;
  const int n = static_cast<int>(rng.UniformInt(4, 12));
  const uint64_t max_m = MaxWorkers(n, space);
  const uint64_t m = uint64_t{1} << rng.UniformInt(0, FloorLog2(max_m));
  const uint64_t part = static_cast<uint64_t>(rng.UniformInt(0, m - 1));
  StatusOr<ConstraintSet> c =
      ConstraintSet::FromPartitionId(n, space, part, m);
  ASSERT_TRUE(c.ok());
  const PartitionIndex idx(n, c.value());
  std::map<int64_t, uint64_t> rank_to_set;
  int64_t admissible = 0;
  for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
    const int64_t rank = idx.Rank(TableSet(bits));
    if (rank < 0) continue;
    ++admissible;
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, idx.size());
    EXPECT_TRUE(rank_to_set.emplace(rank, bits).second);
  }
  EXPECT_EQ(admissible, idx.size());
}

/// Combined selectivity of the predicates with one endpoint in `left`
/// and the other in `right`.
double CutSelectivity(const Query& q, TableSet left, TableSet right) {
  double sel = 1.0;
  for (const JoinPredicate& p : q.predicates()) {
    if ((left.Contains(p.left_table) && right.Contains(p.right_table)) ||
        (left.Contains(p.right_table) && right.Contains(p.left_table))) {
      sel *= p.selectivity;
    }
  }
  return sel;
}

TEST_P(SeededProperty, CardinalityCutIdentity) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x9999);
  const int n = static_cast<int>(rng.UniformInt(2, 10));
  const auto shape = static_cast<JoinGraphShape>(rng.UniformInt(0, 3));
  const Query q = MakeQuery(n, shape, seed);
  const CardinalityEstimator est(q);
  const TableSet all = q.all_tables();
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t bits =
        static_cast<uint64_t>(rng.UniformInt(1, (1 << n) - 2));
    const TableSet left(bits);
    const TableSet right = all.Minus(left);
    if (left.IsEmpty() || right.IsEmpty()) continue;
    const double lhs = est.Cardinality(all);
    const double rhs = est.Cardinality(left) * est.Cardinality(right) *
                       CutSelectivity(q, left, right);
    if (rhs > 10) {
      EXPECT_NEAR(lhs / rhs, 1.0, 1e-9);
    }
  }
}

TEST_P(SeededProperty, MpqExactAcrossRandomConfigurations) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x7777);
  const auto space =
      rng.UniformInt(0, 1) == 0 ? PlanSpace::kLinear : PlanSpace::kBushy;
  const int n = static_cast<int>(
      space == PlanSpace::kLinear ? rng.UniformInt(4, 11)
                                  : rng.UniformInt(4, 9));
  const auto shape = static_cast<JoinGraphShape>(rng.UniformInt(0, 3));
  const Query q = MakeQuery(n, shape, seed);
  DpConfig config;
  config.space = space;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  const uint64_t m = UsableWorkers(
      n, space, uint64_t{1} << rng.UniformInt(0, 5));
  MpqOptions opts;
  opts.space = space;
  opts.num_workers = m;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(
      result.value().arena.node(result.value().best[0]).cost.time() /
          serial.value().arena.node(serial.value().best[0]).cost.time(),
      1.0, 1e-12)
      << PlanSpaceName(space) << " n=" << n << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace mpqopt
