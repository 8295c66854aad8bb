// Copyright 2026 mpqopt authors.

#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace mpqopt {
namespace {

TEST(CostModelTest, ScanCostEqualsCardinalityInTimeMetric) {
  const CostModel model(Objective::kTime);
  EXPECT_DOUBLE_EQ(model.ScanCost(1000).time(), 1000);
  EXPECT_EQ(model.ScanCost(1000).num_metrics(), 1);
}

TEST(CostModelTest, ScanCostBufferIsOneBlock) {
  CostModelOptions opts;
  opts.block_size = 64;
  const CostModel model(Objective::kTimeAndBuffer, opts);
  const CostVector c = model.ScanCost(1000);
  EXPECT_EQ(c.num_metrics(), 2);
  EXPECT_DOUBLE_EQ(c[1], 64);
}

TEST(CostModelTest, BlockNestedLoopFormula) {
  CostModelOptions opts;
  opts.block_size = 100;
  opts.output_cost_factor = 1.0;
  const CostModel model(Objective::kTime, opts);
  // |L|=250 -> 3 blocks; 250 + 3*1000 + out 50.
  EXPECT_DOUBLE_EQ(
      model.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop, 250, 1000, 50),
      250 + 3 * 1000 + 50);
}

TEST(CostModelTest, HashJoinFormula) {
  CostModelOptions opts;
  opts.hash_constant = 1.2;
  const CostModel model(Objective::kTime, opts);
  EXPECT_DOUBLE_EQ(model.LocalJoinTime(JoinAlgorithm::kHashJoin, 100, 200, 30),
                   1.2 * 300 + 30);
}

TEST(CostModelTest, SortMergeFormula) {
  const CostModel model(Objective::kTime);
  const double expected =
      1024 * 10 + 16 * 4 + 1024 + 16 + 7;  // n log n terms + merge + out
  EXPECT_DOUBLE_EQ(
      model.LocalJoinTime(JoinAlgorithm::kSortMergeJoin, 1024, 16, 7),
      expected);
}

TEST(CostModelTest, JoinCostAddsChildTimes) {
  const CostModel model(Objective::kTime);
  const CostVector l = CostVector::Scalar(500);
  const CostVector r = CostVector::Scalar(700);
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kHashJoin, l, r, 100, 200, 30);
  EXPECT_DOUBLE_EQ(
      joined.time(),
      500 + 700 + model.LocalJoinTime(JoinAlgorithm::kHashJoin, 100, 200, 30));
}

TEST(CostModelTest, BufferMetricIsPeakNotSum) {
  const CostModel model(Objective::kTimeAndBuffer);
  const CostVector l = CostVector::TimeBuffer(10, 5000);
  const CostVector r = CostVector::TimeBuffer(10, 300);
  // Hash join build side of 100 rows: local buffer 100 < child peak 5000.
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kHashJoin, l, r, 100, 200, 30);
  EXPECT_DOUBLE_EQ(joined[1], 5000);
}

TEST(CostModelTest, HashJoinBufferIsBuildSide) {
  const CostModel model(Objective::kTimeAndBuffer);
  const CostVector l = CostVector::TimeBuffer(10, 1);
  const CostVector r = CostVector::TimeBuffer(10, 1);
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kHashJoin, l, r, 4000, 200, 30);
  EXPECT_DOUBLE_EQ(joined[1], 4000);
}

TEST(CostModelTest, SortMergeBufferIsBothSides) {
  const CostModel model(Objective::kTimeAndBuffer);
  const CostVector l = CostVector::TimeBuffer(10, 1);
  const CostVector r = CostVector::TimeBuffer(10, 1);
  const CostVector joined =
      model.JoinCost(JoinAlgorithm::kSortMergeJoin, l, r, 4000, 600, 30);
  EXPECT_DOUBLE_EQ(joined[1], 4600);
}

TEST(CostModelTest, MonotoneInInputCardinalities) {
  const CostModel model(Objective::kTime);
  for (JoinAlgorithm alg : kJoinAlgorithms) {
    const double base = model.LocalJoinTime(alg, 1000, 1000, 10);
    EXPECT_LT(base, model.LocalJoinTime(alg, 2000, 1000, 10));
    EXPECT_LT(base, model.LocalJoinTime(alg, 1000, 2000, 10));
    EXPECT_LT(base, model.LocalJoinTime(alg, 1000, 1000, 500));
  }
}

TEST(CostModelTest, HashBeatsNestedLoopOnLargeInputs) {
  const CostModel model(Objective::kTime);
  EXPECT_LT(model.LocalJoinTime(JoinAlgorithm::kHashJoin, 1e6, 1e6, 10),
            model.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop, 1e6, 1e6, 10));
}

TEST(CostModelTest, NestedLoopCompetitiveOnTinyOuter) {
  CostModelOptions opts;
  opts.block_size = 100;
  const CostModel model(Objective::kTime, opts);
  // A one-block outer makes BNL a single inner pass.
  EXPECT_LT(
      model.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop, 10, 1000, 10),
      model.LocalJoinTime(JoinAlgorithm::kSortMergeJoin, 10, 1000, 10));
}

// ---------------------------------------------------------------------
// Bit-exact agreement with the textbook formulas. The DP costs plans
// through prepared operand terms; these tests pin that every entry point
// computes the same doubles, bit for bit, as the formulas written out
// literally below.
// ---------------------------------------------------------------------

double TextbookLocalTime(JoinAlgorithm alg, double left_card,
                         double right_card, double output_card,
                         const CostModelOptions& o) {
  double work = 0;
  switch (alg) {
    case JoinAlgorithm::kBlockNestedLoop:
      work = left_card + std::ceil(left_card / o.block_size) * right_card;
      break;
    case JoinAlgorithm::kHashJoin:
      work = o.hash_constant * (left_card + right_card);
      break;
    case JoinAlgorithm::kSortMergeJoin: {
      const double ll = left_card > 2 ? std::log2(left_card) : 1.0;
      const double lr = right_card > 2 ? std::log2(right_card) : 1.0;
      work = left_card * ll + right_card * lr + left_card + right_card;
      break;
    }
    case JoinAlgorithm::kScan:
      ADD_FAILURE() << "scan is not a join";
  }
  return work + o.output_cost_factor * output_card;
}

CostVector TextbookJoinCost(Objective objective, JoinAlgorithm alg,
                            const CostVector& left_cost,
                            const CostVector& right_cost, double left_card,
                            double right_card, double output_card,
                            const CostModelOptions& o) {
  const double local_time =
      TextbookLocalTime(alg, left_card, right_card, output_card, o);
  if (objective == Objective::kTime) {
    return CostVector::Scalar(left_cost.time() + right_cost.time() +
                              local_time);
  }
  double local_buffer = 0;
  if (alg == JoinAlgorithm::kBlockNestedLoop) local_buffer = o.block_size;
  if (alg == JoinAlgorithm::kHashJoin) local_buffer = left_card;
  if (alg == JoinAlgorithm::kSortMergeJoin) {
    local_buffer = left_card + right_card;
  }
  const double time = left_cost.time() + right_cost.time() + local_time;
  double buffer = left_cost[1] > right_cost[1] ? left_cost[1] : right_cost[1];
  if (local_buffer > buffer) buffer = local_buffer;
  return CostVector::TimeBuffer(time, buffer);
}

/// Cardinalities around every branch of the formulas (1, 2, just above 2
/// where log2 takes over, block-size multiples, non-integers, 1e12) plus
/// seeded log-uniform draws.
std::vector<double> SweepCardinalities() {
  std::vector<double> cards = {1.0,
                               2.0,
                               std::nextafter(2.0, 3.0),
                               2.5,
                               3.0,
                               7.3,
                               63.999,
                               64.0,
                               99.99,
                               100.0,
                               100.5,
                               1000.25,
                               12345.678,
                               1e6,
                               1e12};
  Rng rng(2026);
  for (int i = 0; i < 40; ++i) {
    cards.push_back(std::exp(rng.UniformDouble() * std::log(1e12)));
  }
  return cards;
}

TEST(CostModelTest, PreparedOperandsMatchTextbookFormulaBitForBit) {
  CostModelOptions tuned;
  tuned.block_size = 64;
  tuned.hash_constant = 1.7;
  tuned.output_cost_factor = 0.5;
  const std::vector<double> cards = SweepCardinalities();
  for (const CostModelOptions& o : {CostModelOptions(), tuned}) {
    for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
      const CostModel model(objective, o);
      for (size_t i = 0; i < cards.size(); ++i) {
        const double l = cards[i];
        const double r = cards[(i * 7 + 3) % cards.size()];
        const double out = cards[(i * 13 + 5) % cards.size()];
        const JoinOperand lo = model.Operand(l);
        const JoinOperand ro = model.Operand(r);
        const CostVector lc =
            objective == Objective::kTime
                ? CostVector::Scalar(l * 3.25)
                : CostVector::TimeBuffer(l * 3.25, cards[(i + 1) % 5] * 10);
        const CostVector rc =
            objective == Objective::kTime
                ? CostVector::Scalar(r + 0.125)
                : CostVector::TimeBuffer(r + 0.125, cards[(i + 3) % 7]);
        for (JoinAlgorithm alg : kJoinAlgorithms) {
          const double expected = TextbookLocalTime(alg, l, r, out, o);
          EXPECT_EQ(model.LocalJoinTime(alg, lo, ro, model.OutputTime(out)),
                    expected)
              << JoinAlgorithmName(alg) << " " << l << " " << r;
          EXPECT_EQ(model.LocalJoinTime(alg, l, r, out), expected)
              << JoinAlgorithmName(alg) << " " << l << " " << r;
          const CostVector want =
              TextbookJoinCost(objective, alg, lc, rc, l, r, out, o);
          const CostVector wrapped = model.JoinCost(alg, lc, rc, l, r, out);
          const CostVector composed = model.ComposeJoinCost(
              lc, rc, model.LocalJoinTime(alg, lo, ro, model.OutputTime(out)),
              model.LocalJoinBuffer(alg, l, r));
          ASSERT_EQ(wrapped.num_metrics(), want.num_metrics());
          ASSERT_EQ(composed.num_metrics(), want.num_metrics());
          for (int m = 0; m < want.num_metrics(); ++m) {
            EXPECT_EQ(wrapped[m], want[m]) << JoinAlgorithmName(alg) << m;
            EXPECT_EQ(composed[m], want[m]) << JoinAlgorithmName(alg) << m;
          }
        }
      }
    }
  }
}

TEST(CostModelTest, OperandTermsMatchTheirDefinitions) {
  const CostModel model(Objective::kTime);
  for (double card : SweepCardinalities()) {
    const JoinOperand op = model.Operand(card);
    EXPECT_EQ(op.card, card);
    EXPECT_EQ(op.blocks, std::ceil(card / 100.0)) << card;
    EXPECT_EQ(op.sort, card > 2 ? card * std::log2(card) : card) << card;
    EXPECT_EQ(op.sort, model.SortTime(card)) << card;
  }
}

TEST(CostModelTest, OperandWithoutSortTermLeavesItZero) {
  const CostModel model(Objective::kTime);
  for (double card : SweepCardinalities()) {
    const JoinOperand op = model.Operand(card, /*sort=*/false);
    EXPECT_EQ(op.card, card);
    EXPECT_EQ(op.blocks, model.Operand(card).blocks) << card;
    EXPECT_EQ(op.sort, 0) << card;
  }
}

/// The largest hash constant the dominance proof allows: 2 (1 - 4u).
constexpr double kMaxDominatedHash =
    2 * (1 - 2 * std::numeric_limits<double>::epsilon());

bool SortMergeDominated(double hash, double block, double output) {
  CostModelOptions o;
  o.hash_constant = hash;
  o.block_size = block;
  o.output_cost_factor = output;
  return CostModel(Objective::kTime, o).SortMergeDominated();
}

TEST(CostModelTest, SortMergeDominatedWhileHashJoinCoversIt) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(CostModel(Objective::kTime).SortMergeDominated());
  EXPECT_TRUE(CostModel(Objective::kTimeAndBuffer).SortMergeDominated());
  EXPECT_TRUE(SortMergeDominated(1.99, 100, 1));
  EXPECT_TRUE(SortMergeDominated(kMaxDominatedHash, 100, 1));
  EXPECT_TRUE(SortMergeDominated(0, 100, 1));
  EXPECT_TRUE(SortMergeDominated(1.2, 100, 0));
  EXPECT_TRUE(SortMergeDominated(1.2, 1, 1));
  // A hash join can cost more than a sort-merge join over the same
  // operands, or the proof's margin is gone.
  EXPECT_FALSE(SortMergeDominated(2, 100, 1));
  EXPECT_FALSE(SortMergeDominated(std::nextafter(kMaxDominatedHash, 2.0), 100,
                                  1));
  EXPECT_FALSE(SortMergeDominated(10, 100, 1));
  // Negative operator times break the time+buffer DP's alpha argument.
  EXPECT_FALSE(SortMergeDominated(-0.5, 100, 1));
  EXPECT_FALSE(SortMergeDominated(1.2, 0, 1));
  EXPECT_FALSE(SortMergeDominated(1.2, -100, 1));
  EXPECT_FALSE(SortMergeDominated(1.2, 100, -1));
  // NaN constants fail every comparison.
  EXPECT_FALSE(SortMergeDominated(nan, 100, 1));
  EXPECT_FALSE(SortMergeDominated(1.2, nan, 1));
  EXPECT_FALSE(SortMergeDominated(1.2, 100, nan));
}

TEST(CostModelTest, DominatedSortMergeNeverUndercutsHashJoin) {
  // The header's claim, bit for bit over the sweep: every sort term is at
  // least its card, and at the largest hash constant the predicate
  // accepts the sort-merge join's computed time is never below the hash
  // join's.
  const std::vector<double> cards = SweepCardinalities();
  for (double card : cards) {
    EXPECT_GE(CostModel(Objective::kTime).SortTime(card), card) << card;
  }
  for (double hash : {kMaxDominatedHash, 1.99, 1.2, 0.0}) {
    CostModelOptions o;
    o.hash_constant = hash;
    const CostModel model(Objective::kTime, o);
    ASSERT_TRUE(model.SortMergeDominated());
    for (double l : cards) {
      for (double r : cards) {
        const double out_time = model.OutputTime(l);
        EXPECT_GE(model.LocalJoinTime(JoinAlgorithm::kSortMergeJoin,
                                      model.Operand(l), model.Operand(r),
                                      out_time),
                  model.LocalJoinTime(JoinAlgorithm::kHashJoin,
                                      model.Operand(l), model.Operand(r),
                                      out_time))
            << hash << " " << l << " " << r;
      }
    }
  }
}

TEST(CostModelTest, NumMetricsFollowsObjective) {
  EXPECT_EQ(CostModel(Objective::kTime).num_metrics(), 1);
  EXPECT_EQ(CostModel(Objective::kTimeAndBuffer).num_metrics(), 2);
}

TEST(CostModelTest, AlgorithmNames) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kScan), "Scan");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kBlockNestedLoop), "BNL");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kHashJoin), "HJ");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kSortMergeJoin), "SMJ");
}

}  // namespace
}  // namespace mpqopt
