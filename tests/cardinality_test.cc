// Copyright 2026 mpqopt authors.

#include "cost/cardinality.h"

#include <gtest/gtest.h>

#include <vector>

#include "catalog/generator.h"

namespace mpqopt {
namespace {

Query ThreeTableChain() {
  std::vector<TableInfo> tables(3);
  tables[0].cardinality = 100;
  tables[1].cardinality = 200;
  tables[2].cardinality = 400;
  for (auto& t : tables) t.attribute_domains = {10.0};
  std::vector<JoinPredicate> preds;
  preds.push_back({0, 0, 1, 0, 0.01});
  preds.push_back({1, 0, 2, 0, 0.5});
  return Query(std::move(tables), std::move(preds));
}

TEST(CardinalityTest, SingleTable) {
  const Query q = ThreeTableChain();
  CardinalityEstimator est(q);
  EXPECT_DOUBLE_EQ(est.Cardinality(TableSet::Single(0)), 100);
  EXPECT_DOUBLE_EQ(est.Cardinality(TableSet::Single(2)), 400);
}

TEST(CardinalityTest, JoinAppliesSelectivity) {
  const Query q = ThreeTableChain();
  CardinalityEstimator est(q);
  // 100 * 200 * 0.01
  EXPECT_DOUBLE_EQ(est.Cardinality(TableSet::Single(0).With(1)), 200);
}

TEST(CardinalityTest, CrossProductHasNoSelectivity) {
  const Query q = ThreeTableChain();
  CardinalityEstimator est(q);
  // Tables 0 and 2 are not connected: 100 * 400.
  EXPECT_DOUBLE_EQ(est.Cardinality(TableSet::Single(0).With(2)), 40000);
}

TEST(CardinalityTest, FullJoinAppliesAllPredicates) {
  const Query q = ThreeTableChain();
  CardinalityEstimator est(q);
  // 100 * 200 * 400 * 0.01 * 0.5
  EXPECT_DOUBLE_EQ(est.Cardinality(TableSet::AllTables(3)), 40000);
}

TEST(CardinalityTest, ClampedAtOneRow) {
  std::vector<TableInfo> tables(2);
  tables[0].cardinality = 10;
  tables[1].cardinality = 10;
  for (auto& t : tables) t.attribute_domains = {1000.0};
  std::vector<JoinPredicate> preds = {{0, 0, 1, 0, 0.001}};
  const Query q(std::move(tables), std::move(preds));
  CardinalityEstimator est(q);
  // 10 * 10 * 0.001 = 0.1 -> clamped to 1.
  EXPECT_DOUBLE_EQ(est.Cardinality(TableSet::AllTables(2)), 1.0);
}

TEST(CardinalityTest, ConnectingSelectivity) {
  const Query q = ThreeTableChain();
  CardinalityEstimator est(q);
  EXPECT_DOUBLE_EQ(
      est.ConnectingSelectivity(TableSet::Single(0), TableSet::Single(1)),
      0.01);
  EXPECT_DOUBLE_EQ(
      est.ConnectingSelectivity(TableSet::Single(0), TableSet::Single(2)),
      1.0);
  // Both predicates cross the cut {1} vs {0,2}.
  EXPECT_DOUBLE_EQ(est.ConnectingSelectivity(TableSet::Single(1),
                                             TableSet::Single(0).With(2)),
                   0.01 * 0.5);
}

TEST(CardinalityTest, Connected) {
  const Query q = ThreeTableChain();
  CardinalityEstimator est(q);
  EXPECT_TRUE(est.Connected(TableSet::Single(0), TableSet::Single(1)));
  EXPECT_FALSE(est.Connected(TableSet::Single(0), TableSet::Single(2)));
  EXPECT_TRUE(
      est.Connected(TableSet::Single(0).With(1), TableSet::Single(2)));
}

TEST(CardinalityTest, CardinalityDecomposesOverCuts) {
  // |L ∪ R| == |L| * |R| * sel(L, R) for any disjoint L, R — the identity
  // the DP's cost computation relies on.
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, 99);
  const Query q = gen.Generate(8);
  CardinalityEstimator est(q);
  const TableSet all = q.all_tables();
  SubsetEnumerator it(all);
  while (it.Next()) {
    const TableSet left = it.current();
    const TableSet right = all.Minus(left);
    const double joint = est.Cardinality(all);
    const double split = est.Cardinality(left) * est.Cardinality(right) *
                         est.ConnectingSelectivity(left, right);
    // The clamp to >= 1 row may break the identity for tiny results, so
    // only check when well above the clamp.
    if (split > 10) {
      EXPECT_NEAR(joint / split, 1.0, 1e-9) << left.ToString();
    }
  }
}

TEST(CardinalityTest, MonotoneInTableCardinality) {
  std::vector<TableInfo> small(2), large(2);
  small[0].cardinality = 100;
  small[1].cardinality = 100;
  large[0].cardinality = 1000;
  large[1].cardinality = 100;
  for (auto* tv : {&small, &large}) {
    for (auto& t : *tv) t.attribute_domains = {10.0};
  }
  std::vector<JoinPredicate> preds = {{0, 0, 1, 0, 0.1}};
  const Query qs(std::move(small), preds);
  const Query ql(std::move(large), preds);
  EXPECT_LT(CardinalityEstimator(qs).Cardinality(TableSet::AllTables(2)),
            CardinalityEstimator(ql).Cardinality(TableSet::AllTables(2)));
}

/// Reference estimator over the plain layout, one adjacency vector per
/// table. The flat layout must reproduce it bit for bit: the same
/// multiplications in the same order.
class AdjacencyListEstimator {
 public:
  explicit AdjacencyListEstimator(const Query& query) {
    const int n = query.num_tables();
    table_cards_.resize(n);
    for (int i = 0; i < n; ++i) table_cards_[i] = query.table(i).cardinality;
    adjacency_.resize(n);
    for (const JoinPredicate& p : query.predicates()) {
      adjacency_[p.left_table].push_back({p.right_table, p.selectivity});
      adjacency_[p.right_table].push_back({p.left_table, p.selectivity});
    }
  }

  double Cardinality(TableSet s) const {
    double card = 1.0;
    for (int t : s) {
      card *= table_cards_[t];
      for (const Edge& e : adjacency_[t]) {
        if (e.other_table > t && s.Contains(e.other_table)) {
          card *= e.selectivity;
        }
      }
    }
    return card < 1.0 ? 1.0 : card;
  }

  double ConnectingSelectivity(TableSet left, TableSet right) const {
    double sel = 1.0;
    const TableSet probe = left.Count() <= right.Count() ? left : right;
    const TableSet other = left.Count() <= right.Count() ? right : left;
    for (int t : probe) {
      for (const Edge& e : adjacency_[t]) {
        if (other.Contains(e.other_table)) sel *= e.selectivity;
      }
    }
    return sel;
  }

  bool Connected(TableSet left, TableSet right) const {
    const TableSet probe = left.Count() <= right.Count() ? left : right;
    const TableSet other = left.Count() <= right.Count() ? right : left;
    for (int t : probe) {
      for (const Edge& e : adjacency_[t]) {
        if (other.Contains(e.other_table)) return true;
      }
    }
    return false;
  }

 private:
  struct Edge {
    int other_table;
    double selectivity;
  };
  std::vector<double> table_cards_;
  std::vector<std::vector<Edge>> adjacency_;
};

TEST(CardinalityTest, FlatLayoutMatchesAdjacencyListsBitForBit) {
  for (JoinGraphShape shape :
       {JoinGraphShape::kStar, JoinGraphShape::kChain, JoinGraphShape::kCycle,
        JoinGraphShape::kClique}) {
    for (int n = 1; n <= 12; ++n) {
      GeneratorOptions opts;
      opts.shape = shape;
      QueryGenerator gen(opts, 500 + static_cast<uint64_t>(n));
      const Query q = gen.Generate(n);
      const CardinalityEstimator est(q);
      const AdjacencyListEstimator ref(q);
      const TableSet all = q.all_tables();
      for (uint64_t bits = 1; bits <= all.bits(); ++bits) {
        const TableSet s(bits);
        // EXPECT_EQ on raw doubles: equal bits, not merely close values.
        EXPECT_EQ(est.Cardinality(s), ref.Cardinality(s))
            << JoinGraphShapeName(shape) << " n=" << n << " " << s.ToString();
        if (s != all) {
          const TableSet rest = all.Minus(s);
          EXPECT_EQ(est.ConnectingSelectivity(s, rest),
                    ref.ConnectingSelectivity(s, rest))
              << JoinGraphShapeName(shape) << " n=" << n << " "
              << s.ToString();
          EXPECT_EQ(est.Connected(s, rest), ref.Connected(s, rest))
              << JoinGraphShapeName(shape) << " n=" << n << " "
              << s.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace mpqopt
