// Copyright 2026 mpqopt authors.

#include "optimizer/pqo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "catalog/generator.h"
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

TEST(PqoTest, PartitionPlansMatchPinnedDigests) {
  // Every partition's parametric optimal set (plans, affine costs, theta
  // intervals) and work counters, then the merged parallel result,
  // digested bit by bit (see tests/plan_digest.h). Ten tables allow 16
  // linear and 8 bushy partitions.
  struct Pin {
    JoinGraphShape shape;
    PlanSpace space;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {JoinGraphShape::kStar, PlanSpace::kLinear, 221, 0xf4c71839ad2c2707},
      {JoinGraphShape::kChain, PlanSpace::kLinear, 222, 0x566c7a9bc11a7656},
      {JoinGraphShape::kClique, PlanSpace::kLinear, 223, 0xd42abe4f277e9349},
      {JoinGraphShape::kStar, PlanSpace::kBushy, 224, 0xdd3334ddfea2982e},
      {JoinGraphShape::kChain, PlanSpace::kBushy, 225, 0x1a9a39f15a758b77},
      {JoinGraphShape::kClique, PlanSpace::kBushy, 226, 0x8ecd3bb9b1669230},
  };
  const auto digest_result = [](const PqoResult& r, Fnv64* h) {
    h->Add(r.admissible_sets);
    h->Add(r.splits_tried);
    h->Add(static_cast<uint64_t>(r.plans.size()));
    for (const PqoPlan& p : r.plans) {
      DigestPlan(r.arena, p.plan, h);
      h->Add(p.cost.constant);
      h->Add(p.cost.slope);
      h->Add(p.theta_begin);
      h->Add(p.theta_end);
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
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> c =
          ConstraintSet::FromPartitionId(10, pin.space, part, m);
      ASSERT_TRUE(c.ok());
      StatusOr<PqoResult> result = RunParametricDp(q, c.value(), config);
      ASSERT_TRUE(result.ok());
      h.Add(part);
      digest_result(result.value(), &h);
    }
    StatusOr<PqoResult> parallel = ParallelParametricOptimize(q, m, config);
    ASSERT_TRUE(parallel.ok());
    digest_result(parallel.value(), &h);
    EXPECT_EQ(h.value(), pin.digest)
        << JoinGraphShapeName(pin.shape) << " " << PlanSpaceName(pin.space)
        << " seed=" << pin.seed << ": digest 0x" << std::hex << h.value();
  }
}

}  // namespace
}  // namespace mpqopt
