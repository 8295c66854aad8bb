// Copyright 2026 mpqopt authors.

#include "optimizer/pqo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "cost/cardinality.h"
#include "tests/plan_digest.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

TEST(AffineCostTest, Evaluation) {
  const AffineCost c{10, 4};
  EXPECT_DOUBLE_EQ(c.At(0), 10);
  EXPECT_DOUBLE_EQ(c.At(0.5), 12);
  EXPECT_DOUBLE_EQ(c.At(1), 14);
}

TEST(AffineCostTest, PlusAndScale) {
  const AffineCost sum = AffineCost{1, 2}.Plus({10, 20});
  EXPECT_DOUBLE_EQ(sum.constant, 11);
  EXPECT_DOUBLE_EQ(sum.slope, 22);
  const AffineCost scaled = AffineCost{3, 4}.Scaled(2);
  EXPECT_DOUBLE_EQ(scaled.constant, 6);
  EXPECT_DOUBLE_EQ(scaled.slope, 8);
}

TEST(LowerEnvelopeTest, SingleLine) {
  EXPECT_EQ(LowerEnvelope({{5, 1}}), (std::vector<size_t>{0}));
}

TEST(LowerEnvelopeTest, DominatedLineDropped) {
  // Line 1 is above line 0 everywhere on [0, 1].
  const std::vector<size_t> keep = LowerEnvelope({{1, 1}, {3, 1}});
  EXPECT_EQ(keep, (std::vector<size_t>{0}));
}

TEST(LowerEnvelopeTest, CrossingLinesBothKept) {
  // Cross at theta = 0.5.
  const std::vector<size_t> keep = LowerEnvelope({{0, 2}, {1, 0}});
  EXPECT_EQ(keep, (std::vector<size_t>{0, 1}));
}

TEST(LowerEnvelopeTest, CrossingOutsideRangeDropped) {
  // Lines cross at theta = 2 — outside [0, 1]; only the lower one stays.
  const std::vector<size_t> keep = LowerEnvelope({{0, 1}, {2, 0}});
  EXPECT_EQ(keep, (std::vector<size_t>{0}));
}

TEST(LowerEnvelopeTest, MiddleLineOfThree) {
  // Steep-down, shallow, steep-up arrangement where all three touch the
  // envelope: {4,-4} wins early, {1.5,0} in the middle, {0,4}... at 0:
  // values 4, 1.5, 0 -> line 2 wins at 0; at 1: 0, 1.5, 4 -> line 0 wins.
  // Middle line wins around theta=0.5: values 2, 1.5, 2.
  const std::vector<size_t> keep =
      LowerEnvelope({{4, -4}, {1.5, 0}, {0, 4}});
  EXPECT_EQ(keep, (std::vector<size_t>{0, 1, 2}));
}

TEST(LowerEnvelopeTest, EnvelopeMinimalityBruteForce) {
  // Every kept line must be the strict-or-tied minimum somewhere; every
  // dropped line must never be the unique minimum.
  const std::vector<AffineCost> lines = {{3, 0},  {0, 5},   {5, -4},
                                         {2, 1},  {10, -3}, {1, 3},
                                         {4, -1}, {2.5, 0.2}};
  const std::vector<size_t> keep = LowerEnvelope(lines);
  std::vector<bool> kept(lines.size(), false);
  for (size_t i : keep) kept[i] = true;
  for (double theta = 0; theta <= 1.0 + 1e-12; theta += 1.0 / 512) {
    double best = std::numeric_limits<double>::infinity();
    for (const AffineCost& line : lines) best = std::min(best, line.At(theta));
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].At(theta) < best - 1e-9) {
        ADD_FAILURE() << "line below envelope?";
      }
      if (!kept[i]) {
        EXPECT_GE(lines[i].At(theta), best - 1e-9)
            << "dropped line " << i << " wins at " << theta;
      }
    }
  }
}

TEST(PqoTest, EnvelopeMatchesPointwiseOptimization) {
  // The parametric result evaluated at any theta must match running the
  // DP on the concrete query instance with that theta's cardinality.
  const Query base = RandomQuery(6, 201);
  PqoConfig config;
  config.space = PlanSpace::kLinear;
  config.parametric_table = 0;
  config.variability = 9.0;
  StatusOr<PqoResult> result =
      RunParametricDp(base, ConstraintSet::None(PlanSpace::kLinear), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().plans.empty());

  for (double theta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // Envelope value at theta.
    double envelope = std::numeric_limits<double>::infinity();
    for (const PqoPlan& plan : result.value().plans) {
      envelope = std::min(envelope, plan.cost.At(theta));
    }
    // Brute-force: instantiate the query at this theta and run the same
    // affine DP with variability 0 (equivalent to a concrete optimizer
    // restricted to BNL/HJ with the smooth block model).
    std::vector<TableInfo> tables(base.tables());
    tables[0].cardinality *= (1 + config.variability * theta);
    const Query concrete(std::move(tables), base.predicates());
    PqoConfig concrete_config = config;
    concrete_config.variability = 0;
    StatusOr<PqoResult> point = RunParametricDp(
        concrete, ConstraintSet::None(PlanSpace::kLinear), concrete_config);
    ASSERT_TRUE(point.ok());
    ASSERT_EQ(point.value().plans.size(), 1u);
    EXPECT_NEAR(envelope / point.value().plans[0].cost.At(0), 1.0, 1e-9)
        << "theta=" << theta;
  }
}

TEST(PqoTest, IntervalsPartitionZeroOne) {
  const Query q = RandomQuery(7, 203);
  PqoConfig config;
  config.space = PlanSpace::kBushy;
  config.parametric_table = 1;
  StatusOr<PqoResult> result =
      RunParametricDp(q, ConstraintSet::None(PlanSpace::kBushy), config);
  ASSERT_TRUE(result.ok());
  double next = 0;
  for (const PqoPlan& plan : result.value().plans) {
    EXPECT_DOUBLE_EQ(plan.theta_begin, next);
    EXPECT_GE(plan.theta_end, plan.theta_begin);
    next = plan.theta_end;
  }
  EXPECT_DOUBLE_EQ(next, 1.0);
}

TEST(PqoTest, ZeroVariabilityYieldsSinglePlan) {
  const Query q = RandomQuery(6, 205);
  PqoConfig config;
  config.space = PlanSpace::kLinear;
  config.variability = 0;
  StatusOr<PqoResult> result =
      RunParametricDp(q, ConstraintSet::None(PlanSpace::kLinear), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().plans.size(), 1u);
}

TEST(PqoTest, ParallelMatchesSerialEnvelope) {
  // The paper's claim, third instantiation: partition-optimal envelopes
  // merged at the master equal the serial parametric optimum.
  const Query q = RandomQuery(8, 207);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    PqoConfig config;
    config.space = space;
    config.parametric_table = 2;
    StatusOr<PqoResult> serial =
        RunParametricDp(q, ConstraintSet::None(space), config);
    ASSERT_TRUE(serial.ok());
    const uint64_t m = space == PlanSpace::kLinear ? 8 : 4;
    StatusOr<PqoResult> parallel = ParallelParametricOptimize(q, m, config);
    ASSERT_TRUE(parallel.ok());
    for (double theta : {0.0, 0.3, 0.6, 1.0}) {
      double serial_best = std::numeric_limits<double>::infinity();
      for (const PqoPlan& p : serial.value().plans) {
        serial_best = std::min(serial_best, p.cost.At(theta));
      }
      double parallel_best = std::numeric_limits<double>::infinity();
      for (const PqoPlan& p : parallel.value().plans) {
        parallel_best = std::min(parallel_best, p.cost.At(theta));
      }
      EXPECT_NEAR(parallel_best / serial_best, 1.0, 1e-9)
          << PlanSpaceName(space) << " theta=" << theta;
    }
  }
}

TEST(PqoTest, HighVariabilityProducesPlanSwitches) {
  // With a 100x cardinality swing, the optimal plan should change across
  // the parameter range for at least some seeds.
  int switches_seen = 0;
  for (uint64_t seed = 300; seed < 310; ++seed) {
    const Query q = RandomQuery(6, seed);
    PqoConfig config;
    config.space = PlanSpace::kBushy;
    config.variability = 99.0;
    StatusOr<PqoResult> result =
        RunParametricDp(q, ConstraintSet::None(PlanSpace::kBushy), config);
    ASSERT_TRUE(result.ok());
    if (result.value().plans.size() > 1) ++switches_seen;
  }
  EXPECT_GT(switches_seen, 0);
}

TEST(PqoTest, RejectsBadParametricTable) {
  const Query q = RandomQuery(4, 211);
  PqoConfig config;
  config.parametric_table = 99;
  EXPECT_FALSE(
      RunParametricDp(q, ConstraintSet::None(PlanSpace::kLinear), config)
          .ok());
}

TEST(PqoTest, SingleTableQuery) {
  const Query q = RandomQuery(1, 213);
  PqoConfig config;
  StatusOr<PqoResult> result =
      RunParametricDp(q, ConstraintSet::None(PlanSpace::kLinear), config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().plans.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().plans[0].theta_begin, 0);
  EXPECT_DOUBLE_EQ(result.value().plans[0].theta_end, 1);
}

TEST(PqoTest, SetsBelowOneRowKeepTheirUnclampedProduct) {
  // 10 x 10 rows at selectivity 0.001 make 0.1 rows, which the other DPs
  // clamp to one row; the affine cardinality keeps the product itself.
  std::vector<TableInfo> tables(2);
  for (TableInfo& t : tables) {
    t.cardinality = 10;
    t.attribute_domains = {1000.0};
  }
  const Query q(std::move(tables), {{0, 0, 1, 0, 0.001}});
  const double product = CardinalityEstimator(q).Product(q.all_tables());
  ASSERT_LT(product, 1.0);
  for (const double variability : {0.0, 4.0}) {
    PqoConfig config;
    config.parametric_table = 1;
    config.variability = variability;
    StatusOr<PqoResult> result =
        RunParametricDp(q, ConstraintSet::None(PlanSpace::kLinear), config);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result.value().plans.empty());
    // A plan's node carries its affine cardinality at theta = 0.5.
    const AffineCost card{product, product * variability};
    for (const PqoPlan& plan : result.value().plans) {
      EXPECT_EQ(result.value().arena.node(plan.plan).cardinality,
                card.At(0.5))
          << "variability " << variability;
    }
  }
}

TEST(PqoTest, PartitionPlansMatchPinnedDigests) {
  // Every partition's parametric optimal set (plans, affine costs, theta
  // intervals) and work counters, then the merged parallel result,
  // digested bit by bit, and once more without cards, costs and theta
  // intervals (see tests/plan_digest.h). Ten tables allow 16 linear and 8
  // bushy partitions.
  struct Pin {
    JoinGraphShape shape;
    PlanSpace space;
    uint64_t seed;
    uint64_t digest;
    uint64_t shape_digest;
  };
  const Pin pins[] = {
      {JoinGraphShape::kStar, PlanSpace::kLinear, 221, 0x9976785434b801c6,
       0x9f0265d58f6b4dd9},
      {JoinGraphShape::kChain, PlanSpace::kLinear, 222, 0xcf6d861f50d742f9,
       0x6e731ecd4aea68aa},
      {JoinGraphShape::kClique, PlanSpace::kLinear, 223, 0x87d47695bf072ab1,
       0x46651ddd5f04047d},
      {JoinGraphShape::kStar, PlanSpace::kBushy, 224, 0x14b22236567ae7ca,
       0xdffaafc7805eb7e2},
      {JoinGraphShape::kChain, PlanSpace::kBushy, 225, 0x61eef0755a9e6fdd,
       0xa31d928cd16b1753},
      {JoinGraphShape::kClique, PlanSpace::kBushy, 226, 0x03ff328158518735,
       0xa5d47c658134a900},
  };
  const auto digest_result = [](const PqoResult& r, Fnv64* h,
                                 Fnv64* shape) {
    for (Fnv64* d : {h, shape}) {
      d->Add(r.admissible_sets);
      d->Add(r.splits_tried);
      d->Add(static_cast<uint64_t>(r.plans.size()));
    }
    for (const PqoPlan& p : r.plans) {
      DigestPlan(r.arena, p.plan, h);
      DigestPlanShape(r.arena, p.plan, shape);
      h->Add(p.cost.constant);
      h->Add(p.cost.slope);
      h->Add(p.theta_begin);
      h->Add(p.theta_end);
    }
  };
  // The theta intervals of a result tile [0, 1] in order.
  const auto expect_tiling = [](const PqoResult& r, const std::string& where) {
    ASSERT_FALSE(r.plans.empty()) << where;
    EXPECT_EQ(r.plans.front().theta_begin, 0.0) << where;
    EXPECT_EQ(r.plans.back().theta_end, 1.0) << where;
    for (size_t i = 0; i < r.plans.size(); ++i) {
      EXPECT_LE(r.plans[i].theta_begin, r.plans[i].theta_end)
          << where << " interval " << i;
      if (i > 0) {
        EXPECT_EQ(r.plans[i].theta_begin, r.plans[i - 1].theta_end)
            << where << " interval " << i;
      }
    }
  };
  for (const Pin& pin : pins) {
    GeneratorOptions opts;
    opts.shape = pin.shape;
    const Query q = QueryGenerator(opts, pin.seed).Generate(10);
    PqoConfig config;
    config.space = pin.space;
    config.parametric_table = 3;
    config.variability = 99.0;
    const uint64_t m = std::min<uint64_t>(16, MaxWorkers(10, pin.space));
    Fnv64 h;
    Fnv64 shape;
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> c =
          ConstraintSet::FromPartitionId(10, pin.space, part, m);
      ASSERT_TRUE(c.ok());
      StatusOr<PqoResult> result = RunParametricDp(q, c.value(), config);
      ASSERT_TRUE(result.ok());
      expect_tiling(result.value(), "seed " + std::to_string(pin.seed) +
                                        " partition " + std::to_string(part));
      h.Add(part);
      shape.Add(part);
      digest_result(result.value(), &h, &shape);
    }
    StatusOr<PqoResult> parallel = ParallelParametricOptimize(q, m, config);
    ASSERT_TRUE(parallel.ok());
    expect_tiling(parallel.value(),
                  "seed " + std::to_string(pin.seed) + " merged");
    digest_result(parallel.value(), &h, &shape);
    const std::string name = std::string(JoinGraphShapeName(pin.shape)) +
                             " " + PlanSpaceName(pin.space) +
                             " seed=" + std::to_string(pin.seed);
    EXPECT_EQ(h.value(), pin.digest)
        << name << ": digest 0x" << std::hex << h.value();
    EXPECT_EQ(shape.value(), pin.shape_digest)
        << name << ": shape digest 0x" << std::hex << shape.value();
  }
}

}  // namespace
}  // namespace mpqopt
