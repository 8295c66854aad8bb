// Copyright 2026 mpqopt authors.
//
// Randomized property tests sweeping seeds and sizes (the "fuzz light"
// layer on top of the example-based suites).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "common/rng.h"
#include "cost/cardinality.h"
#include "mpq/mpq.h"
#include "optimizer/dp.h"
#include "optimizer/partition_dp.h"
#include "optimizer/pruning.h"
#include "partition/partition_index.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"
#include "tests/overflow_query.h"

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

/// The bits of a cost.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Expects the plan rooted at `id` to pass ValidatePlan at tolerance 0:
/// every card and, with `check_costs`, every cost equal to what the
/// estimator and `model` derive from its operands, bit for bit; in the
/// linear space it must be left-deep too.
void ExpectValidAtToleranceZero(const PlanArena& arena, PlanId id,
                                const Query& q, const CostModel& model,
                                PlanSpace space, bool check_costs,
                                const std::string& where) {
  PlanValidationOptions options;
  options.relative_tolerance = 0;
  options.check_costs = check_costs;
  options.require_left_deep = space == PlanSpace::kLinear;
  const Status s = ValidatePlan(arena, id, q, model, options);
  EXPECT_TRUE(s.ok()) << where << ": " << s.ToString();
}

/// A random space, a query of a random shape with up to `max_linear`
/// (linear) or `max_bushy` (bushy) tables, and a usable worker count of
/// up to 32, drawn from `rng`.
struct RandomConfiguration {
  PlanSpace space;
  int n;
  JoinGraphShape shape;
  uint64_t m;

  RandomConfiguration(Rng* rng, int max_linear, int max_bushy) {
    space = rng->UniformInt(0, 1) == 0 ? PlanSpace::kLinear
                                       : PlanSpace::kBushy;
    n = static_cast<int>(space == PlanSpace::kLinear
                             ? rng->UniformInt(4, max_linear)
                             : rng->UniformInt(4, max_bushy));
    shape = static_cast<JoinGraphShape>(rng->UniformInt(0, 3));
    m = UsableWorkers(n, space, uint64_t{1} << rng->UniformInt(0, 5));
  }

  std::string Name() const {
    return std::string(JoinGraphShapeName(shape)) + " " +
           PlanSpaceName(space) + " n=" + std::to_string(n) +
           " m=" + std::to_string(m);
  }
};

TEST_P(SeededProperty, MpqExactAcrossRandomConfigurations) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x7777);
  const RandomConfiguration c(&rng, 11, 9);
  const Query q = MakeQuery(c.n, c.shape, seed);
  DpConfig config;
  config.space = c.space;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  MpqOptions opts;
  opts.space = c.space;
  opts.num_workers = c.m;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  // Costs do not depend on the partition, so MPQ's best is the serial
  // optimum's cost exactly.
  EXPECT_EQ(
      Bits(result.value().arena.node(result.value().best[0]).cost.time()),
      Bits(serial.value().arena.node(serial.value().best[0]).cost.time()))
      << c.Name();
  const CostModel model(Objective::kTime);
  ExpectValidAtToleranceZero(result.value().arena, result.value().best[0], q,
                             model, c.space, true, "mpq " + c.Name());
  ExpectValidAtToleranceZero(serial.value().arena, serial.value().best[0], q,
                             model, c.space, true, "serial " + c.Name());
}

/// The cost vectors of `plans` as bits, sorted.
std::vector<std::pair<uint64_t, uint64_t>> FrontierBits(
    const PlanArena& arena, const std::vector<PlanId>& plans) {
  std::vector<std::pair<uint64_t, uint64_t>> costs;
  for (PlanId id : plans) {
    const CostVector& cost = arena.node(id).cost;
    costs.push_back({Bits(cost.time()), Bits(cost[1])});
  }
  std::sort(costs.begin(), costs.end());
  return costs;
}

TEST_P(SeededProperty, MpqFrontierEqualsSerialAtAlphaOne) {
  // At alpha = 1 every partition keeps its exact Pareto set, and the
  // master's prune of their union leaves the cost vectors of the serial
  // DP's exact Pareto set: the same vectors, bit for bit.
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x1357);
  const RandomConfiguration c(&rng, 9, 8);
  const Query q = MakeQuery(c.n, c.shape, seed);
  DpConfig config;
  config.space = c.space;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  MpqOptions opts;
  opts.space = c.space;
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1;
  opts.num_workers = c.m;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(FrontierBits(result.value().arena, result.value().best),
            FrontierBits(serial.value().arena, serial.value().best))
      << c.Name();
  const CostModel model(Objective::kTimeAndBuffer);
  for (PlanId id : result.value().best) {
    ExpectValidAtToleranceZero(result.value().arena, id, q, model, c.space,
                               true, "mpq " + c.Name());
  }
  for (PlanId id : serial.value().best) {
    ExpectValidAtToleranceZero(serial.value().arena, id, q, model, c.space,
                               true, "serial " + c.Name());
  }
}

TEST_P(SeededProperty, MpqInterestingOrdersEqualSerial) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x8642);
  const RandomConfiguration c(&rng, 10, 8);
  const Query q = MakeQuery(c.n, c.shape, seed);
  DpConfig config;
  config.space = c.space;
  config.interesting_orders = true;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  MpqOptions opts;
  opts.space = c.space;
  opts.interesting_orders = true;
  opts.num_workers = c.m;
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(
      Bits(result.value().arena.node(result.value().best[0]).cost.time()),
      Bits(serial.value().arena.node(serial.value().best[0]).cost.time()))
      << c.Name();
  // An interesting-orders cost depends on the order context, which the
  // plain cost model cannot rederive; the cards still must match.
  const CostModel model(Objective::kTime);
  ExpectValidAtToleranceZero(result.value().arena, result.value().best[0], q,
                             model, c.space, false, "mpq " + c.Name());
  ExpectValidAtToleranceZero(serial.value().arena, serial.value().best[0], q,
                             model, c.space, false, "serial " + c.Name());
}

// ---------------------------------------------------------------------
// Reference kernels: the scalar and time+buffer DP kernels as they were
// before the sort-merge dominance rule (cost_model.h). Every split costs
// all three join algorithms, and the scalar DP replaces its best only on
// a strictly cheaper candidate, so it aborts on a set that no candidate
// costs below +inf.
// ---------------------------------------------------------------------

/// The scalar DP's memo entry as it was before the DP split it into an
/// operand entry and a kept word: one struct per set, with its left
/// operand's tables.
struct ScalarEntry {
  double cost = kInfiniteCost;
  JoinOperand op;
  uint64_t left_bits = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};

class ReferenceScalarDp {
 public:
  struct State {
    ScalarEntry best;
    double out_card;
    double out_time;
  };

  ReferenceScalarDp(const Query& query, const PartitionIndex& index,
                    const CostModel& model)
      : model_(model),
        estimator_(query),
        memo_(static_cast<size_t>(index.size())) {
    for (int t = 0; t < query.num_tables(); ++t) {
      const double card = query.table(t).cardinality;
      scan_[t] = {model_.ScanCost(card).time(), model_.Operand(card), 0,
                  JoinAlgorithm::kScan};
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = scan_[t];
    }
  }

  /// The walk's product goes unused: the reference takes its rows from
  /// the full fold.
  State Begin(TableSet u, double /*product*/) const {
    const double card = estimator_.Cardinality(u);
    return {ScalarEntry(), card, model_.OutputTime(card)};
  }

  void Join(State* s, TableSet left, int64_t /*left_rank*/,
            const ScalarEntry& l, const ScalarEntry& r) const {
    const double base = l.cost + r.cost;
    for (JoinAlgorithm alg : kJoinAlgorithms) {
      const double cost =
          base + model_.LocalJoinTime(alg, l.op, r.op, s->out_time);
      if (cost < s->best.cost) {
        s->best.cost = cost;
        s->best.left_bits = left.bits();
        s->best.alg = alg;
      }
    }
  }

  void End(State* s, int64_t rank) {
    MPQOPT_CHECK(s->best.cost < kInfiniteCost);
    ScalarEntry& slot = memo_[static_cast<size_t>(rank)];
    slot = s->best;
    slot.op = model_.Operand(s->out_card);
  }

  const ScalarEntry& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const ScalarEntry& Scan(int t) const { return scan_[t]; }

 private:
  const CostModel& model_;
  CardinalityEstimator estimator_;
  std::vector<ScalarEntry> memo_;
  ScalarEntry scan_[kMaxTables];
};

class ReferenceParetoDp {
 public:
  struct Frontier {
    JoinOperand op;
    std::vector<ParetoPlanRef> plans;
  };
  struct State {
    double out_card;
    double out_time;
  };

  ReferenceParetoDp(const Query& query, const PartitionIndex& index,
                    const CostModel& model, double alpha)
      : model_(model),
        alpha_(alpha),
        estimator_(query),
        memo_(static_cast<size_t>(index.size())) {
    for (int t = 0; t < query.num_tables(); ++t) {
      const double card = query.table(t).cardinality;
      scan_[t] = {model_.Operand(card),
                  {{model_.ScanCost(card), 0, 0, 0, JoinAlgorithm::kScan}}};
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = scan_[t];
    }
  }

  State Begin(TableSet u, double /*product*/) {
    frontier_.clear();
    const double card = estimator_.Cardinality(u);
    return {card, model_.OutputTime(card)};
  }

  void Join(State* s, TableSet left, int64_t /*left_rank*/, const Frontier& l,
            const Frontier& r) {
    double local_time[kNumJoinAlgorithms];
    double local_buffer[kNumJoinAlgorithms];
    for (int a = 0; a < kNumJoinAlgorithms; ++a) {
      local_time[a] =
          model_.LocalJoinTime(kJoinAlgorithms[a], l.op, r.op, s->out_time);
      local_buffer[a] =
          model_.LocalJoinBuffer(kJoinAlgorithms[a], l.op.card, r.op.card);
    }
    plans_costed_ += static_cast<int64_t>(l.plans.size() * r.plans.size()) *
                     kNumJoinAlgorithms;
    const auto cost_of = [](const ParetoPlanRef& p) -> const CostVector& {
      return p.cost;
    };
    for (uint32_t li = 0; li < l.plans.size(); ++li) {
      for (uint32_t ri = 0; ri < r.plans.size(); ++ri) {
        for (int a = 0; a < kNumJoinAlgorithms; ++a) {
          ParetoPlanRef cand;
          cand.cost = model_.ComposeJoinCost(l.plans[li].cost,
                                             r.plans[ri].cost, local_time[a],
                                             local_buffer[a]);
          cand.left_bits = left.bits();
          cand.left_idx = li;
          cand.right_idx = ri;
          cand.alg = kJoinAlgorithms[a];
          ParetoInsert(&frontier_, cand, cost_of, alpha_);
        }
      }
    }
  }

  void End(State* s, int64_t rank) {
    MPQOPT_CHECK(!frontier_.empty());
    memo_[static_cast<size_t>(rank)] = {model_.Operand(s->out_card),
                                        frontier_};
  }

  const Frontier& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const Frontier& Scan(int t) const { return scan_[t]; }
  int64_t plans_costed() const { return plans_costed_; }

 private:
  const CostModel& model_;
  double alpha_;
  CardinalityEstimator estimator_;
  std::vector<Frontier> memo_;
  std::vector<ParetoPlanRef> frontier_;
  int64_t plans_costed_ = 0;
  Frontier scan_[kMaxTables];
};

/// ReferenceScalarDp, and also over a set that no candidate costs below
/// +inf, which the reference aborts on: such a set keeps its first split,
/// by the first join algorithm, at +inf (the scalar DP's documented rule;
/// DpTest.OverflowingCostsGiveAPlanThatCostsInfinity), and this stores
/// that entry beside the reference's memo.
class ReferenceScalarDpOrFirstSplit : public ReferenceScalarDp {
 public:
  struct State {
    ReferenceScalarDp::State ref;
    uint64_t first_left_bits = 0;
  };

  ReferenceScalarDpOrFirstSplit(const Query& query, const PartitionIndex& index,
                                const CostModel& model)
      : ReferenceScalarDp(query, index, model), model_(model) {}

  State Begin(TableSet u, double product) const {
    return {ReferenceScalarDp::Begin(u, product)};
  }

  void Join(State* s, TableSet left, int64_t left_rank, const ScalarEntry& l,
            const ScalarEntry& r) const {
    if (s->first_left_bits == 0) s->first_left_bits = left.bits();
    ReferenceScalarDp::Join(&s->ref, left, left_rank, l, r);
  }

  void End(State* s, int64_t rank) {
    if (s->ref.best.cost < kInfiniteCost) {
      ReferenceScalarDp::End(&s->ref, rank);
      return;
    }
    overflowed_[rank] = {kInfiniteCost, model_.Operand(s->ref.out_card),
                         s->first_left_bits, JoinAlgorithm::kBlockNestedLoop};
  }

  const ScalarEntry& Entry(int64_t rank) const {
    const auto it = overflowed_.find(rank);
    return it != overflowed_.end() ? it->second
                                   : ReferenceScalarDp::Entry(rank);
  }

 private:
  const CostModel& model_;
  std::map<int64_t, ScalarEntry> overflowed_;
};

/// The cost bits, operand plans and algorithm of two kept plans agree.
bool SamePlan(const ParetoPlanRef& a, const ParetoPlanRef& b) {
  if (a.cost.num_metrics() != b.cost.num_metrics()) return false;
  for (int i = 0; i < a.cost.num_metrics(); ++i) {
    if (std::bit_cast<uint64_t>(a.cost[i]) !=
        std::bit_cast<uint64_t>(b.cost[i])) {
      return false;
    }
  }
  return a.left_bits == b.left_bits && a.left_idx == b.left_idx &&
         a.right_idx == b.right_idx && a.alg == b.alg;
}

/// Runs the kernels and the reference over one partition and compares
/// every memo entry: the scalar DP's cost bits, left set and algorithm,
/// and the time+buffer DP's frontiers at each alpha in `alphas`.
void ExpectKernelsMatchReference(const Query& q, const ConstraintSet& c,
                                 const CostModelOptions& costs,
                                 const std::vector<double>& alphas,
                                 const std::string& where) {
  const PartitionIndex* index = nullptr;
  ASSERT_TRUE(OpenPartition(q, c, c.space(), int64_t{1} << 28, &index).ok());
  {
    const CostModel model(Objective::kTime, costs);
    ScalarDp dp(q, *index, model);
    ReferenceScalarDpOrFirstSplit ref(q, *index, model);
    ASSERT_EQ(WalkPartition(q, *index, &dp), WalkPartition(q, *index, &ref));
    for (int64_t rank = 0; rank < index->size(); ++rank) {
      const ScalarEntry& want = ref.Entry(rank);
      ASSERT_EQ(std::bit_cast<uint64_t>(dp.Entry(rank).cost),
                std::bit_cast<uint64_t>(want.cost))
          << where << " rank " << rank;
      const uint64_t kept = dp.Kept(rank);
      ASSERT_EQ(index->SetOfRank(ScalarDp::LeftRank(kept)).bits(),
                want.left_bits)
          << where << " rank " << rank;
      ASSERT_EQ(ScalarDp::Algorithm(kept), want.alg)
          << where << " rank " << rank;
    }
  }
  const CostModel model(Objective::kTimeAndBuffer, costs);
  for (double alpha : alphas) {
    ParetoDp dp(q, *index, model, alpha);
    ReferenceParetoDp ref(q, *index, model, alpha);
    ASSERT_EQ(WalkPartition(q, *index, &dp), WalkPartition(q, *index, &ref));
    ASSERT_EQ(dp.plans_costed(), ref.plans_costed());
    for (int64_t rank = 0; rank < index->size(); ++rank) {
      const ParetoEntry& got = dp.Entry(rank);
      const std::vector<ParetoPlanRef>& want = ref.Entry(rank).plans;
      ASSERT_EQ(got.num_plans, want.size())
          << where << " alpha " << alpha << " rank " << rank;
      for (uint32_t i = 0; i < got.num_plans; ++i) {
        ASSERT_TRUE(SamePlan(dp.Plan(got, i), want[i]))
            << where << " alpha " << alpha << " rank " << rank << " plan "
            << i;
      }
    }
  }
}

/// ExpectKernelsMatchReference over every partition of `q` at m = 1, 4
/// and 16 (where usable), under cost constants where sort-merge is
/// dominated and where it is not: the defaults, dp_test's tuned ones, a
/// hash constant just under 2, hash 10 with one- and two-row blocks
/// (sort-merge joins can win) and with the default blocks, no output
/// term, and a free hash join (hash constant 0), under which a split
/// costs its operands and its output alone, so splits tie often.
void ExpectKernelsMatchReferenceEverywhere(const Query& q, PlanSpace space,
                                           const std::vector<double>& alphas,
                                           const std::string& what) {
  struct Costs {
    double block, hash, output;
  };
  const Costs cost_options[] = {{100, 1.2, 1}, {64, 1.7, 0.5}, {100, 1.99, 1},
                                {1, 10, 1},    {2, 10, 1},     {100, 10, 1},
                                {100, 1.2, 0}, {100, 0, 1}};
  const int n = q.num_tables();
  for (const Costs& k : cost_options) {
    CostModelOptions costs;
    costs.block_size = k.block;
    costs.hash_constant = k.hash;
    costs.output_cost_factor = k.output;
    for (uint64_t m : {1, 4, 16}) {
      if (UsableWorkers(n, space, m) != m) continue;
      for (uint64_t part = 0; part < m; ++part) {
        StatusOr<ConstraintSet> c =
            ConstraintSet::FromPartitionId(n, space, part, m);
        ASSERT_TRUE(c.ok());
        const std::string where =
            what + " " + PlanSpaceName(space) + " n=" + std::to_string(n) +
            " block=" + std::to_string(k.block) +
            " hash=" + std::to_string(k.hash) +
            " output=" + std::to_string(k.output) + " m=" + std::to_string(m) +
            " part=" + std::to_string(part);
        ExpectKernelsMatchReference(q, c.value(), costs, alphas, where);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(SeededProperty, KernelsMatchReferenceOnEveryMemoEntry) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x2468);
  GeneratorOptions gen;
  gen.shape = static_cast<JoinGraphShape>(seed % 4);
  gen.min_cardinality = 1;  // sort terms equal the cards at 1 or 2 rows
  const std::string what = JoinGraphShapeName(gen.shape);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    // Both DPs on a query of up to 10 (linear) or 8 (bushy) tables, then
    // the scalar DP alone on one of up to 12: the time+buffer DP grows
    // fastest.
    const int max_pareto = space == PlanSpace::kLinear ? 10 : 8;
    const int small_n = static_cast<int>(rng.UniformInt(2, max_pareto));
    const int large_n = static_cast<int>(rng.UniformInt(2, 12));
    const Query small = QueryGenerator(gen, seed).Generate(small_n);
    ExpectKernelsMatchReferenceEverywhere(small, space, {1, 1.2, 10}, what);
    if (HasFatalFailure()) return;
    const Query large = QueryGenerator(gen, seed).Generate(large_n);
    ExpectKernelsMatchReferenceEverywhere(large, space, {}, what);
    if (HasFatalFailure()) return;
  }
}

TEST(PropertyTest, KernelsMatchReferenceOnOverflowingCosts) {
  // The full join's rows overflow to +inf, so every candidate of that set
  // costs +inf, or NaN where a zero output factor multiplies +inf rows;
  // both reach the scalar DP's lanes and the time+buffer DP's frontiers.
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    ExpectKernelsMatchReferenceEverywhere(OverflowingChainQuery(), space,
                                          {1, 1.2, 10}, "overflow");
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace mpqopt
