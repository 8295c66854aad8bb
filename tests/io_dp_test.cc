// Copyright 2026 mpqopt authors.

#include "optimizer/io_dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "catalog/generator.h"
#include "mpq/mpq.h"
#include "plan/plan_validator.h"
#include "tests/plan_digest.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, JoinGraphShape shape, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

double BestCost(const DpResult& r) {
  return r.arena.node(r.best[0]).cost.time();
}

TEST(IoDpTest, NeverWorseThanOrderBlindDp) {
  // The order-aware plan space is a superset (sorted scans + sort
  // savings), so its optimum cannot be more expensive.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (JoinGraphShape shape :
         {JoinGraphShape::kChain, JoinGraphShape::kStar}) {
      const Query q = RandomQuery(8, shape, seed);
      DpConfig plain;
      plain.space = PlanSpace::kLinear;
      DpConfig io = plain;
      io.interesting_orders = true;
      StatusOr<DpResult> plain_result = OptimizeSerial(q, plain);
      StatusOr<DpResult> io_result = OptimizeSerial(q, io);
      ASSERT_TRUE(plain_result.ok() && io_result.ok());
      EXPECT_LE(BestCost(io_result.value()),
                BestCost(plain_result.value()) * (1 + 1e-12))
          << seed;
    }
  }
}

TEST(IoDpTest, SortSharingBeatsRepeatedSorting) {
  // A chain of joins on the SAME attribute class: once an input is sorted,
  // downstream sort-merge joins must reuse the order. Verify that the
  // order-aware optimum is strictly cheaper than the order-blind one for
  // a workload engineered to reward order reuse (large tables make the
  // n log n sort terms dominate).
  std::vector<TableInfo> tables(5);
  for (auto& t : tables) {
    t.cardinality = 50000;
    t.attribute_domains = {50.0};
  }
  std::vector<JoinPredicate> preds;
  for (int i = 0; i + 1 < 5; ++i) preds.push_back({i, 0, i + 1, 0, 0.02});
  const Query q(std::move(tables), std::move(preds));

  DpConfig plain;
  plain.space = PlanSpace::kBushy;
  DpConfig io = plain;
  io.interesting_orders = true;
  StatusOr<DpResult> plain_result = OptimizeSerial(q, plain);
  StatusOr<DpResult> io_result = OptimizeSerial(q, io);
  ASSERT_TRUE(plain_result.ok() && io_result.ok());
  EXPECT_LT(BestCost(io_result.value()), BestCost(plain_result.value()));
}

TEST(IoDpTest, PlansStructurallyValid) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const Query q = RandomQuery(7, JoinGraphShape::kCycle, 11);
    DpConfig config;
    config.space = space;
    config.interesting_orders = true;
    StatusOr<DpResult> result = OptimizeSerial(q, config);
    ASSERT_TRUE(result.ok());
    const CostModel model(Objective::kTime);
    PlanValidationOptions opts;
    opts.check_costs = false;  // costs are order-dependent
    opts.require_left_deep = space == PlanSpace::kLinear;
    EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                             model, opts)
                    .ok());
  }
}

TEST(IoDpTest, ExactAcrossPartitions) {
  // Partitioning is orthogonal to the order dimension: the min over all
  // partitions of the order-aware DP equals its serial optimum.
  const Query q = RandomQuery(8, JoinGraphShape::kChain, 13);
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    DpConfig config;
    config.space = space;
    config.interesting_orders = true;
    StatusOr<DpResult> serial = OptimizeSerial(q, config);
    ASSERT_TRUE(serial.ok());
    const uint64_t m = space == PlanSpace::kLinear ? 8 : 4;
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> c =
          ConstraintSet::FromPartitionId(q.num_tables(), space, part, m);
      ASSERT_TRUE(c.ok());
      StatusOr<DpResult> result = RunPartitionDp(q, c.value(), config);
      ASSERT_TRUE(result.ok());
      best = std::min(best, BestCost(result.value()));
      EXPECT_GE(BestCost(result.value()),
                BestCost(serial.value()) * (1 - 1e-12));
    }
    EXPECT_NEAR(best / BestCost(serial.value()), 1.0, 1e-12)
        << PlanSpaceName(space);
  }
}

TEST(IoDpTest, MpqEndToEndWithInterestingOrders) {
  const Query q = RandomQuery(10, JoinGraphShape::kChain, 17);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.interesting_orders = true;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  for (uint64_t m : {1u, 4u, 32u}) {
    MpqOptions opts;
    opts.space = PlanSpace::kLinear;
    opts.interesting_orders = true;
    opts.num_workers = m;
    MpqOptimizer mpq(opts);
    StatusOr<MpqResult> result = mpq.Optimize(q);
    ASSERT_TRUE(result.ok()) << "m=" << m;
    EXPECT_NEAR(result.value().arena.node(result.value().best[0]).cost.time() /
                    BestCost(serial.value()),
                1.0, 1e-12)
        << "m=" << m;
  }
}

TEST(IoDpTest, RejectsMultiObjective) {
  const Query q = RandomQuery(4, JoinGraphShape::kStar, 19);
  DpConfig config;
  config.objective = Objective::kTimeAndBuffer;
  config.interesting_orders = true;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(IoDpTest, SingleTableQuery) {
  const Query q = RandomQuery(1, JoinGraphShape::kStar, 23);
  DpConfig config;
  config.interesting_orders = true;
  StatusOr<DpResult> result = OptimizeSerial(q, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().arena.node(result.value().best[0]).IsScan());
}

TEST(IoDpTest, CrossProductQueryFallsBackGracefully) {
  // No predicates at all: no merge classes, no sorted scans pay off; the
  // order-aware DP must still terminate and match the plain optimum.
  std::vector<TableInfo> tables(5);
  for (auto& t : tables) {
    t.cardinality = 50;
    t.attribute_domains = {10.0};
  }
  const Query q(std::move(tables), {});
  DpConfig plain;
  plain.space = PlanSpace::kBushy;
  DpConfig io = plain;
  io.interesting_orders = true;
  StatusOr<DpResult> a = OptimizeSerial(q, plain);
  StatusOr<DpResult> b = OptimizeSerial(q, io);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(BestCost(a.value()), BestCost(b.value()));
}

TEST(IoDpTest, MemoSizeFollowsPartitioningTheorems) {
  // The order dimension multiplies memo entries but the SET count still
  // shrinks by 3/4 per constraint, as in the order-blind DP.
  const Query q = RandomQuery(10, JoinGraphShape::kChain, 29);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.interesting_orders = true;
  int64_t prev = 0;
  for (uint64_t m : {1u, 4u}) {
    StatusOr<ConstraintSet> c =
        ConstraintSet::FromPartitionId(10, PlanSpace::kLinear, 0, m);
    ASSERT_TRUE(c.ok());
    StatusOr<DpResult> result = RunPartitionDp(q, c.value(), config);
    ASSERT_TRUE(result.ok());
    if (prev > 0) {
      EXPECT_EQ(result.value().stats.admissible_sets, prev * 9 / 16);
    }
    prev = result.value().stats.admissible_sets;
  }
}

TEST(IoDpTest, PartitionPlansMatchPinnedDigests) {
  // Every partition's plan and work counters, digested bit by bit and
  // without cards and costs (see tests/plan_digest.h). Ten tables allow
  // 16 linear and 8 bushy partitions.
  struct Pin {
    JoinGraphShape shape;
    PlanSpace space;
    uint64_t seed;
    uint64_t digest;
    uint64_t shape_digest;
  };
  const Pin pins[] = {
      {JoinGraphShape::kStar, PlanSpace::kLinear, 201, 0x1063bb4834fb81a7,
       0xbee5e8bc2ee7e405},
      {JoinGraphShape::kChain, PlanSpace::kLinear, 202, 0xcab52ef9feba4169,
       0x93849c0177e8058b},
      {JoinGraphShape::kClique, PlanSpace::kLinear, 203, 0x8752200ac2118009,
       0x8263d47f54b3ed21},
      {JoinGraphShape::kStar, PlanSpace::kBushy, 204, 0x025a57f1c7d88a45,
       0x1aa144697e841066},
      {JoinGraphShape::kChain, PlanSpace::kBushy, 205, 0x05f51eca90db521e,
       0x7ff1453bcc49da98},
      {JoinGraphShape::kClique, PlanSpace::kBushy, 206, 0x79ba20a973e643d1,
       0xb366cc1f018d9493},
  };
  for (const Pin& pin : pins) {
    const Query q = RandomQuery(10, pin.shape, pin.seed);
    DpConfig config;
    config.space = pin.space;
    config.interesting_orders = true;
    const uint64_t m = std::min<uint64_t>(16, MaxWorkers(10, pin.space));
    Fnv64 h;
    Fnv64 shape;
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> c =
          ConstraintSet::FromPartitionId(10, pin.space, part, m);
      ASSERT_TRUE(c.ok());
      StatusOr<DpResult> result = RunPartitionDp(q, c.value(), config);
      ASSERT_TRUE(result.ok());
      const DpResult& r = result.value();
      for (Fnv64* d : {&h, &shape}) {
        d->Add(part);
        d->Add(r.stats.admissible_sets);
        d->Add(r.stats.splits_tried);
        d->Add(r.stats.plans_costed);
        d->Add(static_cast<uint64_t>(r.best.size()));
      }
      for (PlanId id : r.best) {
        DigestPlan(r.arena, id, &h);
        DigestPlanShape(r.arena, id, &shape);
      }
    }
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
