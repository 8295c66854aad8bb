// Copyright 2026 mpqopt authors.

#include "cost/cardinality.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "common/rng.h"
#include "optimizer/partition_dp.h"
#include "partition/constraints.h"

namespace mpqopt {
namespace {

/// The raw bits of `x`: EXPECT_EQ on these demands equal bits, where
/// EXPECT_EQ on doubles would also accept 0.0 == -0.0.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

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

/// Reference estimator over the plain layout, one adjacency vector per
/// table, that multiplies only the predicates inside the set, in the
/// canonical order: tables ascending, each table's rows and then its
/// predicates to lower tables in predicate order. The flat layout must
/// reproduce it bit for bit: the same multiplications in the same order.
/// It also computes the selectivity of a cut.
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
        if (e.other_table < t && s.Contains(e.other_table)) {
          card *= e.selectivity;
        }
      }
    }
    return card < 1.0 ? 1.0 : card;
  }

  /// Combined selectivity of the predicates connecting `left` and
  /// `right` (1.0 for a Cartesian product).
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

 private:
  struct Edge {
    int other_table;
    double selectivity;
  };
  std::vector<double> table_cards_;
  std::vector<std::vector<Edge>> adjacency_;
};

TEST(CardinalityTest, CardinalityDecomposesOverCuts) {
  // |L ∪ R| == |L| * |R| * sel(L, R) for any disjoint L, R — the identity
  // the DP's cost computation relies on.
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, 99);
  const Query q = gen.Generate(8);
  CardinalityEstimator est(q);
  const AdjacencyListEstimator ref(q);
  const TableSet all = q.all_tables();
  SubsetEnumerator it(all);
  while (it.Next()) {
    const TableSet left = it.current();
    const TableSet right = all.Minus(left);
    const double joint = est.Cardinality(all);
    const double split = est.Cardinality(left) * est.Cardinality(right) *
                         ref.ConnectingSelectivity(left, right);
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

/// A random query of 1..12 tables, in forms the generator never produces:
/// non-integer cardinalities, predicates in shuffled order, endpoints in
/// either order (left_table > right_table too), some pairs joined by two
/// predicates, and selectivities down to 2^-40, so that products fall
/// below one row and the clamp fires.
Query RandomizedQuery(Rng* rng) {
  const int n = static_cast<int>(rng->UniformInt(1, 12));
  std::vector<TableInfo> tables(n);
  for (TableInfo& t : tables) {
    t.cardinality = std::exp2(30.0 * rng->UniformDouble());
    t.attribute_domains = {1.0};
  }
  std::vector<JoinPredicate> preds;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      // 5/8 of the pairs unjoined, 2/8 joined once, 1/8 twice.
      const int64_t draw = rng->UniformInt(0, 7);
      const int64_t count = draw < 5 ? 0 : (draw < 7 ? 1 : 2);
      for (int64_t i = 0; i < count; ++i) {
        // Mostly mild, so that most products stay above one row.
        const double u = rng->UniformDouble();
        const double sel = std::exp2(-40.0 * u * u * u * u);
        if (rng->UniformInt(0, 1) == 0) {
          preds.push_back({a, 0, b, 0, sel});
        } else {
          preds.push_back({b, 0, a, 0, sel});
        }
      }
    }
  }
  for (size_t i = preds.size(); i > 1; --i) {
    const auto j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(preds[i - 1], preds[j]);
  }
  return Query(std::move(tables), std::move(preds));
}

TEST(CardinalityTest, FlatLayoutMatchesAdjacencyListsBitForBit) {
  // Randomized queries, every subset of each.
  Rng rng(2026);
  int64_t subsets = 0;
  int64_t clamped = 0;
  for (int q_index = 0; q_index < 300; ++q_index) {
    const Query q = RandomizedQuery(&rng);
    ASSERT_TRUE(q.Validate().ok());
    const CardinalityEstimator est(q);
    const AdjacencyListEstimator ref(q);
    for (uint64_t bits = 1; bits <= q.all_tables().bits(); ++bits) {
      const TableSet s(bits);
      const double card = est.Cardinality(s);
      ++subsets;
      if (card == 1.0) ++clamped;
      // The first mismatch stops the test and prints the query.
      ASSERT_EQ(Bits(card), Bits(ref.Cardinality(s)))
          << "query " << q_index << " " << s.ToString() << "\n"
          << q.ToString();
    }
  }
  EXPECT_GT(subsets, 100000);
  // The clamp fires, but most subsets compare unclamped product bits.
  EXPECT_GT(clamped, 0);
  EXPECT_LT(clamped, subsets / 2);
  // Generator queries of every shape.
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
        EXPECT_EQ(Bits(est.Cardinality(s)), Bits(ref.Cardinality(s)))
            << JoinGraphShapeName(shape) << " n=" << n << " " << s.ToString();
      }
    }
  }
}

/// A DP that stores nothing and checks, on every set the walk begins,
/// the product the walk hands Begin, folded from the set's prefix,
/// against the full canonical fold, bit for bit.
class ProductProbe {
 public:
  struct State {};

  explicit ProductProbe(const Query& q) : estimator_(q) {}

  State Begin(TableSet u, double product) {
    ++sets_;
    if (product < 1.0) ++below_one_;
    if (Bits(product) != Bits(estimator_.Product(u)) && mismatch_.empty()) {
      mismatch_ = u.ToString();
    }
    return {};
  }
  void Join(State*, TableSet, int64_t, int, int) {}
  void End(State*, int64_t) {}
  int Entry(int64_t) const { return 0; }
  int Scan(int) const { return 0; }

  int64_t sets() const { return sets_; }
  int64_t below_one() const { return below_one_; }
  /// The first set whose products differ, or empty.
  const std::string& mismatch() const { return mismatch_; }

 private:
  const CardinalityEstimator estimator_;
  int64_t sets_ = 0;
  int64_t below_one_ = 0;
  std::string mismatch_;
};

/// Walks every partition of `q` at m = 1, 4 and 16 (where usable) in
/// `space` with a ProductProbe; adds the sets begun and those whose
/// product is below one row.
void ExpectWalkProductsMatchTheFullFold(const Query& q, PlanSpace space,
                                        const std::string& what,
                                        int64_t* sets, int64_t* below_one) {
  const int n = q.num_tables();
  for (uint64_t m : {1, 4, 16}) {
    if (UsableWorkers(n, space, m) != m) continue;
    for (uint64_t part = 0; part < m; ++part) {
      StatusOr<ConstraintSet> c =
          ConstraintSet::FromPartitionId(n, space, part, m);
      ASSERT_TRUE(c.ok());
      const PartitionIndex* index = nullptr;
      ASSERT_TRUE(
          OpenPartition(q, c.value(), space, int64_t{1} << 28, &index).ok());
      ProductProbe probe(q);
      WalkPartition(q, *index, &probe);
      ASSERT_EQ(probe.mismatch(), "")
          << what << " " << PlanSpaceName(space) << " n=" << n
          << " m=" << m << " part=" << part << "\n"
          << q.ToString();
      *sets += probe.sets();
      *below_one += probe.below_one();
    }
  }
}

TEST(CardinalityTest, WalkProductsEqualTheFullFoldOnEverySet) {
  // Every set of every partition, in both spaces: generator queries of
  // every shape, with leftover single-table groups and without, and
  // randomized queries whose products fall below one row.
  int64_t sets = 0;
  int64_t below_one = 0;
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const std::vector<int> sizes = space == PlanSpace::kLinear
                                       ? std::vector<int>{9, 16}
                                       : std::vector<int>{8, 13};
    for (JoinGraphShape shape :
         {JoinGraphShape::kStar, JoinGraphShape::kChain,
          JoinGraphShape::kCycle, JoinGraphShape::kClique}) {
      for (int n : sizes) {
        GeneratorOptions opts;
        opts.shape = shape;
        const Query q = QueryGenerator(opts, 700 + n).Generate(n);
        ExpectWalkProductsMatchTheFullFold(q, space, JoinGraphShapeName(shape),
                                           &sets, &below_one);
        if (HasFatalFailure()) return;
      }
    }
  }
  int64_t random_sets = 0;
  int64_t random_below_one = 0;
  Rng rng(2027);
  for (int q_index = 0; q_index < 100; ++q_index) {
    const Query q = RandomizedQuery(&rng);
    for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
      ExpectWalkProductsMatchTheFullFold(
          q, space, "randomized query " + std::to_string(q_index),
          &random_sets, &random_below_one);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(sets, 1000000);
  // Products below one row are compared too, before any clamp.
  EXPECT_GT(random_below_one, 0);
  EXPECT_LT(random_below_one, random_sets / 2);
}

}  // namespace
}  // namespace mpqopt
