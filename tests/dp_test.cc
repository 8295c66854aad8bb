// Copyright 2026 mpqopt authors.

#include "optimizer/dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "catalog/generator.h"
#include "cost/cardinality.h"
#include "optimizer/pruning.h"
#include "plan/plan_validator.h"
#include "tests/overflow_query.h"
#include "tests/plan_digest.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, JoinGraphShape shape, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

/// Independent reference: cheapest left-deep plan by enumerating all n!
/// join orders; per join the cheapest algorithm is chosen (valid because
/// the time metric is additive and operator-local).
double BruteForceLinearBest(const Query& q) {
  const CostModel model(Objective::kTime);
  const CardinalityEstimator est(q);
  std::vector<int> order(q.num_tables());
  std::iota(order.begin(), order.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    double cost = 0;
    TableSet joined;
    double joined_card = 0;
    for (size_t i = 0; i < order.size(); ++i) {
      const int t = order[i];
      const double scan_card = q.table(t).cardinality;
      cost += model.ScanCost(scan_card).time();
      if (i == 0) {
        joined = TableSet::Single(t);
        joined_card = scan_card;
        continue;
      }
      const TableSet next = joined.With(t);
      const double out = est.Cardinality(next);
      double local = std::numeric_limits<double>::infinity();
      for (JoinAlgorithm alg : kJoinAlgorithms) {
        local = std::min(local,
                         model.LocalJoinTime(alg, joined_card, scan_card, out));
      }
      cost += local;
      joined = next;
      joined_card = out;
    }
    best = std::min(best, cost);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

/// Independent reference for bushy spaces: hash-map memoized recursion
/// over all splits (no PartitionIndex involved).
double BruteForceBushyBest(const Query& q, TableSet s,
                           std::map<uint64_t, double>* memo,
                           const CostModel& model,
                           const CardinalityEstimator& est) {
  auto it = memo->find(s.bits());
  if (it != memo->end()) return it->second;
  double best;
  if (s.Count() == 1) {
    best = model.ScanCost(q.table(s.Lowest()).cardinality).time();
  } else {
    best = std::numeric_limits<double>::infinity();
    const double out = est.Cardinality(s);
    SubsetEnumerator subsets(s);
    while (subsets.Next()) {
      const TableSet left = subsets.current();
      const TableSet right = s.Minus(left);
      const double lc = BruteForceBushyBest(q, left, memo, model, est);
      const double rc = BruteForceBushyBest(q, right, memo, model, est);
      for (JoinAlgorithm alg : kJoinAlgorithms) {
        best = std::min(best, lc + rc +
                                  model.LocalJoinTime(alg, est.Cardinality(left),
                                                      est.Cardinality(right),
                                                      out));
      }
    }
  }
  (*memo)[s.bits()] = best;
  return best;
}

TEST(DpTest, LinearSerialMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Query q = RandomQuery(6, JoinGraphShape::kStar, seed);
    DpConfig config;
    config.space = PlanSpace::kLinear;
    StatusOr<DpResult> result = OptimizeSerial(q, config);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().best.size(), 1u);
    const double dp_cost =
        result.value().arena.node(result.value().best[0]).cost.time();
    EXPECT_NEAR(dp_cost / BruteForceLinearBest(q), 1.0, 1e-9) << seed;
  }
}

TEST(DpTest, BushySerialMatchesBruteForce) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (JoinGraphShape shape :
         {JoinGraphShape::kChain, JoinGraphShape::kStar}) {
      const Query q = RandomQuery(7, shape, seed);
      DpConfig config;
      config.space = PlanSpace::kBushy;
      StatusOr<DpResult> result = OptimizeSerial(q, config);
      ASSERT_TRUE(result.ok());
      const CostModel model(Objective::kTime);
      const CardinalityEstimator est(q);
      std::map<uint64_t, double> memo;
      const double brute =
          BruteForceBushyBest(q, q.all_tables(), &memo, model, est);
      const double dp_cost =
          result.value().arena.node(result.value().best[0]).cost.time();
      EXPECT_NEAR(dp_cost / brute, 1.0, 1e-9) << seed;
    }
  }
}

TEST(DpTest, BushyNeverWorseThanLinear) {
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    const Query q = RandomQuery(8, JoinGraphShape::kChain, seed);
    DpConfig linear;
    linear.space = PlanSpace::kLinear;
    DpConfig bushy;
    bushy.space = PlanSpace::kBushy;
    StatusOr<DpResult> lr = OptimizeSerial(q, linear);
    StatusOr<DpResult> br = OptimizeSerial(q, bushy);
    ASSERT_TRUE(lr.ok() && br.ok());
    const double lc = lr.value().arena.node(lr.value().best[0]).cost.time();
    const double bc = br.value().arena.node(br.value().best[0]).cost.time();
    EXPECT_LE(bc, lc * (1 + 1e-12));
  }
}

TEST(DpTest, LinearPlansAreLeftDeep) {
  const Query q = RandomQuery(8, JoinGraphShape::kStar, 31);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsLeftDeep(result.value().arena, result.value().best[0]));
}

TEST(DpTest, ReturnedPlansValidate) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const Query q = RandomQuery(7, JoinGraphShape::kCycle, 33);
    DpConfig config;
    config.space = space;
    StatusOr<DpResult> result = OptimizeSerial(q, config);
    ASSERT_TRUE(result.ok());
    const CostModel model(Objective::kTime);
    PlanValidationOptions opts;
    opts.require_left_deep = space == PlanSpace::kLinear;
    EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                             model, opts)
                    .ok());
  }
}

TEST(DpTest, PartitionPlansRespectConstraints) {
  const Query q = RandomQuery(8, JoinGraphShape::kStar, 35);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const uint64_t m = 4;
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> constraints =
          ConstraintSet::FromPartitionId(q.num_tables(), space, part, m);
      ASSERT_TRUE(constraints.ok());
      DpConfig config;
      config.space = space;
      StatusOr<DpResult> result =
          RunPartitionDp(q, constraints.value(), config);
      ASSERT_TRUE(result.ok());
      const CostModel model(Objective::kTime);
      PlanValidationOptions opts;
      opts.require_left_deep = space == PlanSpace::kLinear;
      opts.constraints = &constraints.value();
      EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0],
                               q, model, opts)
                      .ok())
          << PlanSpaceName(space) << " partition " << part;
    }
  }
}

TEST(DpTest, MinOverPartitionsEqualsSerialOptimum) {
  // The exactness property behind Algorithm 1: partition-optimal plans
  // pruned at the master give the global optimum.
  const Query q = RandomQuery(8, JoinGraphShape::kStar, 37);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    DpConfig config;
    config.space = space;
    StatusOr<DpResult> serial = OptimizeSerial(q, config);
    ASSERT_TRUE(serial.ok());
    const double serial_cost =
        serial.value().arena.node(serial.value().best[0]).cost.time();
    const uint64_t m = space == PlanSpace::kLinear ? 16 : 4;
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> constraints =
          ConstraintSet::FromPartitionId(q.num_tables(), space, part, m);
      ASSERT_TRUE(constraints.ok());
      StatusOr<DpResult> result =
          RunPartitionDp(q, constraints.value(), config);
      ASSERT_TRUE(result.ok());
      best = std::min(
          best, result.value().arena.node(result.value().best[0]).cost.time());
      // Each partition optimum is no better than the global optimum.
      EXPECT_GE(result.value().arena.node(result.value().best[0]).cost.time(),
                serial_cost * (1 - 1e-12));
    }
    EXPECT_NEAR(best / serial_cost, 1.0, 1e-9) << PlanSpaceName(space);
  }
}

TEST(DpTest, StatsReportAdmissibleSets) {
  const Query q = RandomQuery(8, JoinGraphShape::kStar, 39);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().stats.admissible_sets, 1 << 8);

  StatusOr<ConstraintSet> constraints =
      ConstraintSet::FromPartitionId(8, PlanSpace::kLinear, 0, 4);
  ASSERT_TRUE(constraints.ok());
  StatusOr<DpResult> part = RunPartitionDp(q, constraints.value(), config);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part.value().stats.admissible_sets, 256 * 9 / 16);  // (3/4)^2
}

TEST(DpTest, LinearSplitCountUnconstrained) {
  // Unconstrained linear DP tries sum over k>=2 of C(n,k)*k splits.
  const int n = 7;
  const Query q = RandomQuery(n, JoinGraphShape::kChain, 41);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  // sum_{k=0..n} C(n,k)*k = n*2^(n-1); subtract k=1 terms (n sets * 1).
  const int64_t expected = int64_t{n} * (1 << (n - 1)) - n;
  EXPECT_EQ(result.value().stats.splits_tried, expected);
  EXPECT_EQ(result.value().stats.plans_costed,
            expected * kNumJoinAlgorithms);
}

TEST(DpTest, SingleTableQuery) {
  const Query q = RandomQuery(1, JoinGraphShape::kStar, 43);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    DpConfig config;
    config.space = space;
    StatusOr<DpResult> result = OptimizeSerial(q, config);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().best.size(), 1u);
    EXPECT_TRUE(
        result.value().arena.node(result.value().best[0]).IsScan());
  }
}

TEST(DpTest, TwoTableQueryPicksCheaperOuter) {
  std::vector<TableInfo> tables(2);
  tables[0].cardinality = 1000;
  tables[1].cardinality = 10;
  for (auto& t : tables) t.attribute_domains = {10.0};
  std::vector<JoinPredicate> preds = {{0, 0, 1, 0, 0.1}};
  const Query q(std::move(tables), std::move(preds));
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  // Both orders considered; the optimizer must not be worse than either.
  const double cost =
      result.value().arena.node(result.value().best[0]).cost.time();
  EXPECT_NEAR(cost / BruteForceLinearBest(q), 1.0, 1e-12);
}

TEST(DpTest, OverflowingCostsGiveAPlanThatCostsInfinity) {
  // Every candidate of the full join costs +inf, so none beats the +inf a
  // set starts from: the set keeps its first split, by the first join
  // algorithm.
  const Query q = OverflowingChainQuery();
  ASSERT_TRUE(q.Validate().ok());
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    DpConfig config;
    config.space = space;
    StatusOr<DpResult> result = OptimizeSerial(q, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().best.size(), 1u);
    const PlanNode& root = result.value().arena.node(result.value().best[0]);
    EXPECT_EQ(root.tables, q.all_tables());
    EXPECT_EQ(root.algorithm, JoinAlgorithm::kBlockNestedLoop);
    EXPECT_EQ(root.cardinality, std::numeric_limits<double>::infinity());
    EXPECT_EQ(root.cost.time(), std::numeric_limits<double>::infinity());
    // Its operands are finite, optimal subplans.
    EXPECT_LT(result.value().arena.node(root.left).cost.time(),
              std::numeric_limits<double>::infinity());
  }
}

TEST(DpTest, RejectsMismatchedConstraintSpace) {
  const Query q = RandomQuery(6, JoinGraphShape::kStar, 45);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  StatusOr<DpResult> result =
      RunPartitionDp(q, ConstraintSet::None(PlanSpace::kLinear), config);
  EXPECT_FALSE(result.ok());
}

TEST(DpTest, RejectsTooLargeMemo) {
  const Query q = RandomQuery(20, JoinGraphShape::kStar, 47);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.max_memo_entries = 1000;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(DpTest, RejectsBadAlpha) {
  const Query q = RandomQuery(4, JoinGraphShape::kStar, 49);
  DpConfig config;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 0.5;
  EXPECT_FALSE(OptimizeSerial(q, config).ok());
}

TEST(DpTest, RejectsInvalidQuery) {
  Query q;  // empty
  DpConfig config;
  EXPECT_FALSE(OptimizeSerial(q, config).ok());
}

// ---------------------------------------------------------------------
// Multi-objective mode.
// ---------------------------------------------------------------------

/// Exhaustive exact Pareto frontier of all bushy plans of `s` (reference
/// implementation, independent of the DP under test).
std::vector<CostVector> ExactFrontier(const Query& q, TableSet s,
                                      std::map<uint64_t,
                                               std::vector<CostVector>>* memo,
                                      const CostModel& model,
                                      const CardinalityEstimator& est,
                                      bool linear) {
  auto it = memo->find(s.bits());
  if (it != memo->end()) return it->second;
  std::vector<CostVector> frontier;
  const auto identity = [](const CostVector& c) -> const CostVector& {
    return c;
  };
  if (s.Count() == 1) {
    frontier.push_back(model.ScanCost(q.table(s.Lowest()).cardinality));
  } else {
    const double out = est.Cardinality(s);
    SubsetEnumerator subsets(s);
    while (subsets.Next()) {
      const TableSet left = subsets.current();
      const TableSet right = s.Minus(left);
      if (linear && right.Count() != 1) continue;
      const auto lf = ExactFrontier(q, left, memo, model, est, linear);
      const auto rf = ExactFrontier(q, right, memo, model, est, linear);
      for (const CostVector& lc : lf) {
        for (const CostVector& rc : rf) {
          for (JoinAlgorithm alg : kJoinAlgorithms) {
            ParetoInsert(&frontier,
                         model.JoinCost(alg, lc, rc, est.Cardinality(left),
                                        est.Cardinality(right), out),
                         identity, 1.0);
          }
        }
      }
    }
  }
  (*memo)[s.bits()] = frontier;
  return frontier;
}

class MultiObjectiveDpTest
    : public ::testing::TestWithParam<std::tuple<PlanSpace, double>> {};

TEST_P(MultiObjectiveDpTest, FrontierAlphaCoversExactFrontier) {
  const auto [space, alpha] = GetParam();
  const Query q = RandomQuery(6, JoinGraphShape::kStar, 51);
  DpConfig config;
  config.space = space;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = alpha;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().best.empty());

  const CostModel model(Objective::kTimeAndBuffer);
  const CardinalityEstimator est(q);
  std::map<uint64_t, std::vector<CostVector>> memo;
  const std::vector<CostVector> exact =
      ExactFrontier(q, q.all_tables(), &memo, model, est,
                    space == PlanSpace::kLinear);

  std::vector<CostVector> returned;
  for (PlanId id : result.value().best) {
    returned.push_back(result.value().arena.node(id).cost);
  }
  // Formal guarantee of the pruning function across the whole DP: for a
  // possible plan with cost c, a plan with cost <= alpha^d * c where the
  // per-insert alpha compounds along the plan depth. Empirically the
  // compounding slack is far smaller; we check the single-alpha bound
  // with a small numerical cushion.
  EXPECT_TRUE(AlphaCovers(returned, exact, alpha * (1 + 1e-9)))
      << PlanSpaceName(space) << " alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(
    SpacesAndAlphas, MultiObjectiveDpTest,
    ::testing::Values(std::make_tuple(PlanSpace::kLinear, 10.0),
                      std::make_tuple(PlanSpace::kBushy, 10.0),
                      std::make_tuple(PlanSpace::kLinear, 2.0),
                      std::make_tuple(PlanSpace::kBushy, 2.0)));

TEST(MultiObjectiveDpTest, FrontierPlansValidate) {
  const Query q = RandomQuery(6, JoinGraphShape::kChain, 53);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  config.objective = Objective::kTimeAndBuffer;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  const CostModel model(Objective::kTimeAndBuffer);
  for (PlanId id : result.value().best) {
    EXPECT_TRUE(ValidatePlan(result.value().arena, id, q, model).ok());
  }
}

TEST(MultiObjectiveDpTest, FrontierMutuallyNonDominated) {
  const Query q = RandomQuery(7, JoinGraphShape::kStar, 55);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1.0;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  const auto& arena = result.value().arena;
  for (PlanId a : result.value().best) {
    for (PlanId b : result.value().best) {
      if (a == b) continue;
      EXPECT_FALSE(arena.node(a).cost.StrictlyDominates(arena.node(b).cost));
    }
  }
}

TEST(MultiObjectiveDpTest, TimeMetricMatchesSingleObjectiveOptimum) {
  // With alpha = 1 the frontier's best-time plan must equal the
  // single-objective optimum.
  const Query q = RandomQuery(7, JoinGraphShape::kStar, 57);
  DpConfig mo;
  mo.space = PlanSpace::kBushy;
  mo.objective = Objective::kTimeAndBuffer;
  mo.alpha = 1.0;
  DpConfig so;
  so.space = PlanSpace::kBushy;
  StatusOr<DpResult> mo_result = OptimizeSerial(q, mo);
  StatusOr<DpResult> so_result = OptimizeSerial(q, so);
  ASSERT_TRUE(mo_result.ok() && so_result.ok());
  double best_time = std::numeric_limits<double>::infinity();
  for (PlanId id : mo_result.value().best) {
    best_time =
        std::min(best_time, mo_result.value().arena.node(id).cost.time());
  }
  const double so_time =
      so_result.value().arena.node(so_result.value().best[0]).cost.time();
  EXPECT_NEAR(best_time / so_time, 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Plan identity pin.
// ---------------------------------------------------------------------

struct PlanPin {
  JoinGraphShape shape;
  PlanSpace space;
  Objective objective;
  int num_tables;
  uint64_t seed;
  uint64_t digest;
  /// Non-default cost constants, so a DP that drops one of them (say the
  /// output cost factor, 1 by default) changes the digest.
  bool tuned_costs = false;
};

/// True if the plan rooted at `id` contains a join by `alg`.
bool ContainsJoin(const PlanArena& arena, PlanId id, JoinAlgorithm alg) {
  const PlanNode& node = arena.node(id);
  if (node.IsScan()) return false;
  return node.algorithm == alg || ContainsJoin(arena, node.left, alg) ||
         ContainsJoin(arena, node.right, alg);
}

/// Digests every partition's returned plans and work counters at m = 16,
/// bit by bit, under `config` with the pin's space and objective. Sets
/// `*sort_merge` if a returned plan contains a sort-merge join.
uint64_t PinnedPartitionsDigest(const PlanPin& pin, DpConfig config,
                                bool* sort_merge) {
  constexpr uint64_t kPartitions = 16;
  const Query q = RandomQuery(pin.num_tables, pin.shape, pin.seed);
  config.space = pin.space;
  config.objective = pin.objective;
  Fnv64 h;
  for (uint64_t part = 0; part < kPartitions; ++part) {
    StatusOr<ConstraintSet> constraints = ConstraintSet::FromPartitionId(
        q.num_tables(), pin.space, part, kPartitions);
    EXPECT_TRUE(constraints.ok());
    if (!constraints.ok()) return 0;
    StatusOr<DpResult> result = RunPartitionDp(q, constraints.value(), config);
    EXPECT_TRUE(result.ok());
    if (!result.ok()) return 0;
    const DpResult& r = result.value();
    h.Add(part);
    h.Add(r.stats.admissible_sets);
    h.Add(r.stats.splits_tried);
    h.Add(r.stats.plans_costed);
    h.Add(static_cast<uint64_t>(r.best.size()));
    for (PlanId id : r.best) {
      DigestPlan(r.arena, id, &h);
      if (ContainsJoin(r.arena, id, JoinAlgorithm::kSortMergeJoin)) {
        *sort_merge = true;
      }
    }
  }
  return h.value();
}

std::string PinName(const PlanPin& pin) {
  return std::string(JoinGraphShapeName(pin.shape)) + " " +
         PlanSpaceName(pin.space) +
         " objective=" + std::to_string(static_cast<int>(pin.objective)) +
         " n=" + std::to_string(pin.num_tables) +
         " seed=" + std::to_string(pin.seed);
}

TEST(DpTest, PartitionPlansMatchPinnedDigests) {
  // Every partition's returned plans and work counters, digested bit by
  // bit. A changed evaluation order in the cost arithmetic, tie-break or
  // enumeration order changes a digest, so a change that alters plans
  // must update these goldens on purpose.
  const PlanPin pins[] = {
      {JoinGraphShape::kStar, PlanSpace::kLinear, Objective::kTime, 12, 101,
       0x21cb1bcab6e012f6},
      {JoinGraphShape::kChain, PlanSpace::kLinear, Objective::kTime, 12, 102,
       0x1c8eab4e6cc993a2},
      {JoinGraphShape::kClique, PlanSpace::kLinear, Objective::kTime, 12, 103,
       0x4ccd0800ce83a199},
      {JoinGraphShape::kStar, PlanSpace::kBushy, Objective::kTime, 12, 104,
       0xf6de0fda240c0556},
      {JoinGraphShape::kChain, PlanSpace::kBushy, Objective::kTime, 12, 105,
       0xc3d4236946188f75},
      {JoinGraphShape::kClique, PlanSpace::kBushy, Objective::kTime, 12, 106,
       0x4d6a57fd7a8e3e6d},
      {JoinGraphShape::kStar, PlanSpace::kLinear, Objective::kTimeAndBuffer,
       12, 107, 0x5e7c062fdd4dfcf0},
      {JoinGraphShape::kChain, PlanSpace::kLinear, Objective::kTimeAndBuffer,
       12, 108, 0x467ce84748b3f41d},
      {JoinGraphShape::kClique, PlanSpace::kLinear, Objective::kTimeAndBuffer,
       12, 109, 0xc55f62c9856fda14},
      {JoinGraphShape::kStar, PlanSpace::kBushy, Objective::kTimeAndBuffer,
       12, 110, 0xc465e2fc79881e7e},
      {JoinGraphShape::kChain, PlanSpace::kBushy, Objective::kTimeAndBuffer,
       12, 111, 0x27d1a89d4f424d63},
      {JoinGraphShape::kClique, PlanSpace::kBushy, Objective::kTimeAndBuffer,
       12, 112, 0x52542b9a59a24988},
      {JoinGraphShape::kStar, PlanSpace::kLinear, Objective::kTime, 12, 113,
       0xeb64a7b96818797e, true},
      {JoinGraphShape::kChain, PlanSpace::kBushy, Objective::kTimeAndBuffer,
       12, 114, 0x2a9ea4e12b629296, true},
  };
  for (const PlanPin& pin : pins) {
    DpConfig config;
    if (pin.tuned_costs) {
      config.cost_options.block_size = 64;
      config.cost_options.hash_constant = 1.7;
      config.cost_options.output_cost_factor = 0.5;
    }
    bool sort_merge = false;
    const uint64_t digest = PinnedPartitionsDigest(pin, config, &sort_merge);
    EXPECT_EQ(digest, pin.digest)
        << PinName(pin) << ": digest 0x" << std::hex << digest;
  }
}

TEST(DpTest, SortMergeCostedPlansMatchPinnedDigests) {
  // At hash constant 10 and one-row blocks a sort-merge join can be the
  // cheapest, so the DPs cost it (CostModel::SortMergeDominated is
  // false). These plans were pinned before the kernels learned to skip a
  // dominated sort-merge join, and each digest covers plans that use one.
  // At alpha = 1 the time+buffer frontiers keep the sort-merge plans a
  // coarser alpha would let the hash joins cover.
  const PlanPin pins[] = {
      {JoinGraphShape::kStar, PlanSpace::kLinear, Objective::kTime, 12, 115,
       0xe5632dd6b2848257},
      {JoinGraphShape::kChain, PlanSpace::kBushy, Objective::kTime, 12, 116,
       0x1453355e58d73eb1},
      {JoinGraphShape::kCycle, PlanSpace::kLinear, Objective::kTimeAndBuffer,
       12, 117, 0x905ba4508ac34f7a},
      {JoinGraphShape::kChain, PlanSpace::kBushy, Objective::kTimeAndBuffer,
       12, 118, 0x57c1e7c9f839b38d},
  };
  DpConfig config;
  config.alpha = 1;
  config.cost_options.hash_constant = 10;
  config.cost_options.block_size = 1;
  for (const PlanPin& pin : pins) {
    bool sort_merge = false;
    const uint64_t digest = PinnedPartitionsDigest(pin, config, &sort_merge);
    EXPECT_EQ(digest, pin.digest)
        << PinName(pin) << ": digest 0x" << std::hex << digest;
    EXPECT_TRUE(sort_merge) << PinName(pin);
  }
}

}  // namespace
}  // namespace mpqopt
