// Copyright 2026 mpqopt authors.

#include "partition/partition_index.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/generator.h"
#include "common/math_util.h"
#include "optimizer/partition_dp.h"

namespace mpqopt {
namespace {

ConstraintSet Constraints(int n, PlanSpace space, uint64_t part, uint64_t m) {
  StatusOr<ConstraintSet> c = ConstraintSet::FromPartitionId(n, space, part, m);
  MPQOPT_CHECK(c.ok());
  return std::move(c).value();
}

TEST(PartitionIndexTest, UnconstrainedSizeIsPowerSet) {
  for (int n : {1, 2, 3, 5, 8, 10}) {
    const PartitionIndex idx(n, ConstraintSet::None(PlanSpace::kLinear));
    EXPECT_EQ(idx.size(), int64_t{1} << n) << n;
  }
}

TEST(PartitionIndexTest, UnconstrainedBushySizeIsPowerSet) {
  for (int n : {3, 6, 7, 9, 11}) {
    const PartitionIndex idx(n, ConstraintSet::None(PlanSpace::kBushy));
    EXPECT_EQ(idx.size(), int64_t{1} << n) << n;
  }
}

TEST(PartitionIndexTest, UnconstrainedRankIsTheBitPattern) {
  // With no constraint every digit is its group's local pattern and every
  // stride is 2^offset, so a set's rank is its bit pattern: a memo over
  // the unconstrained index may be addressed by bits.
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    for (int n = 1; n <= 12; ++n) {
      const PartitionIndex idx(n, ConstraintSet::None(space));
      ASSERT_EQ(idx.size(), int64_t{1} << n) << n;
      for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
        ASSERT_EQ(idx.Rank(TableSet(bits)), static_cast<int64_t>(bits))
            << PlanSpaceName(space) << " n=" << n;
      }
    }
  }
}

TEST(PartitionIndexTest, LinearConstraintReducesByThreeQuarters) {
  // Theorem 2: each constraint cuts admissible sets to 3/4.
  for (int l = 0; l <= 4; ++l) {
    const int n = 8;
    const PartitionIndex idx(n,
                             Constraints(n, PlanSpace::kLinear, 0, 1u << l));
    const double expected = std::pow(2.0, n) * std::pow(0.75, l);
    EXPECT_DOUBLE_EQ(static_cast<double>(idx.size()), expected) << l;
  }
}

TEST(PartitionIndexTest, BushyConstraintReducesBySevenEighths) {
  // Theorem 3: each constraint cuts admissible sets to 7/8.
  for (int l = 0; l <= 3; ++l) {
    const int n = 9;
    const PartitionIndex idx(n, Constraints(n, PlanSpace::kBushy, 0, 1u << l));
    const double expected = std::pow(2.0, n) * std::pow(7.0 / 8.0, l);
    EXPECT_DOUBLE_EQ(static_cast<double>(idx.size()), expected) << l;
  }
}

TEST(PartitionIndexTest, RankIsDenseBijection) {
  const int n = 8;
  const PartitionIndex idx(n, Constraints(n, PlanSpace::kLinear, 5, 16));
  std::set<int64_t> ranks;
  int64_t admissible = 0;
  for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
    const int64_t rank = idx.Rank(TableSet(bits));
    if (rank >= 0) {
      ++admissible;
      EXPECT_LT(rank, idx.size());
      EXPECT_TRUE(ranks.insert(rank).second) << "duplicate rank " << rank;
    }
  }
  EXPECT_EQ(admissible, idx.size());
  EXPECT_EQ(static_cast<int64_t>(ranks.size()), idx.size());
}

TEST(PartitionIndexTest, RankAgreesWithConstraintAdmits) {
  const int n = 9;
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const uint64_t m = MaxWorkers(n, space);
    const ConstraintSet constraints = Constraints(n, space, m - 1, m);
    const PartitionIndex idx(n, constraints);
    for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
      const TableSet s(bits);
      // The ConstraintSet treats singletons as always admissible; the
      // index keeps the product structure, so compare only |s| != 1.
      if (s.Count() == 1) continue;
      EXPECT_EQ(idx.Rank(s) >= 0, constraints.Admits(s)) << s.ToString();
    }
  }
}

TEST(PartitionIndexTest, EmptySetHasRankZero) {
  const PartitionIndex idx(6, Constraints(6, PlanSpace::kLinear, 1, 4));
  EXPECT_EQ(idx.Rank(TableSet::Empty()), 0);
}

TEST(PartitionIndexTest, SetOfRankInvertsRank) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    for (int n = 1; n <= 12; ++n) {
      for (uint64_t m : {1, 4, 16}) {
        if (m > MaxWorkers(n, space)) continue;
        for (uint64_t part = 0; part < m; ++part) {
          const PartitionIndex idx(n, Constraints(n, space, part, m));
          SCOPED_TRACE(testing::Message()
                       << PlanSpaceName(space) << " n=" << n << " m=" << m
                       << " part=" << part);
          for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
            const int64_t rank = idx.Rank(TableSet(bits));
            if (rank >= 0) {
              ASSERT_EQ(idx.SetOfRank(rank).bits(), bits);
            }
          }
          for (int64_t rank = 0; rank < idx.size(); ++rank) {
            ASSERT_EQ(idx.Rank(idx.SetOfRank(rank)), rank);
          }
        }
      }
    }
  }
}

TEST(PartitionIndexTest, CountSetsOfCardMatchesEnumeration) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const int n = 10;
    const PartitionIndex idx(n, Constraints(n, space, 3, 8));
    std::vector<int64_t> tally(n + 1, 0);
    idx.ForEachSet([&](TableSet s, int64_t rank, int64_t, int) {
      EXPECT_EQ(idx.Rank(s), rank);
      ++tally[s.Count()];
    });
    int64_t total = 0;
    for (int k = 0; k <= n; ++k) {
      EXPECT_EQ(tally[k], idx.CountSetsOfCard(k))
          << PlanSpaceName(space) << " k=" << k;
      total += tally[k];
    }
    EXPECT_EQ(total, idx.size());
  }
}

TEST(PartitionIndexTest, ForEachSetHandsEachSetItsPrefix) {
  // The prefix is the set's tables below its top group, the group of its
  // highest table: a pair or triple, or a leftover single table.
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    const int width = GroupWidth(space);
    for (int n = 1; n <= 12; ++n) {
      for (uint64_t m = 1; m <= MaxWorkers(n, space); m *= 4) {
        for (uint64_t part = 0; part < m; ++part) {
          const PartitionIndex idx(n, Constraints(n, space, part, m));
          SCOPED_TRACE(testing::Message()
                       << PlanSpaceName(space) << " n=" << n << " m=" << m
                       << " part=" << part);
          int64_t visited = 0;
          idx.ForEachSet([&](TableSet s, int64_t rank, int64_t prefix_rank,
                             int top_offset) {
            ++visited;
            ASSERT_EQ(idx.Rank(s), rank);
            if (s.IsEmpty()) {
              ASSERT_EQ(prefix_rank, 0);
              ASSERT_EQ(top_offset, 0);
              return;
            }
            const int highest = 63 - std::countl_zero(s.bits());
            const int offset = highest < n / width * width
                                   ? highest / width * width
                                   : highest;
            ASSERT_EQ(top_offset, offset) << s.ToString();
            const TableSet prefix(s.bits() & ((uint64_t{1} << offset) - 1));
            ASSERT_EQ(prefix_rank, idx.Rank(prefix)) << s.ToString();
            ASSERT_LT(prefix_rank, rank) << s.ToString();
          });
          EXPECT_EQ(visited, idx.size());
        }
      }
    }
  }
}

TEST(PartitionIndexTest, ForEachSetVisitsEverySetOnce) {
  const int n = 8;
  const PartitionIndex idx(n, Constraints(n, PlanSpace::kBushy, 1, 2));
  std::set<uint64_t> seen;
  idx.ForEachSet([&](TableSet s, int64_t rank, int64_t, int) {
    EXPECT_EQ(idx.Rank(s), rank);
    EXPECT_TRUE(seen.insert(s.bits()).second);
  });
  EXPECT_EQ(static_cast<int64_t>(seen.size()), idx.size());
}

/// A linear set's inner tables, in ascending order: those t with no
/// constraint (t ≺ v) for a v in u.
std::vector<int> AdmissibleInners(const ConstraintSet& constraints,
                                  TableSet u) {
  std::vector<int> inners;
  for (int t : u) {
    bool blocked = false;
    for (const LinearConstraint& c : constraints.linear()) {
      if (c.before == t && u.Contains(c.after)) blocked = true;
    }
    if (!blocked) inners.push_back(t);
  }
  return inners;
}

/// Invokes fn(inner, left_rank) for every split ForEachLinearRun hands
/// lane k of a run, in the order the walk joins them: group 0's inner
/// tables, then the upper ones.
template <typename Fn>
void ForEachRunSplit(const PartitionIndex::LinearRun& run, int k, Fn&& fn) {
  const int64_t rank = run.rank + k;
  const PartitionIndex::InnerTables& lower = run.lower[k];
  for (int i = 0; i < lower.count; ++i) {
    fn(lower.table[i], rank - lower.delta[i]);
  }
  for (int i = 0; i < run.num_upper; ++i) {
    fn(run.upper_table[i], rank - run.upper_delta[i]);
  }
}

TEST(PartitionIndexTest, LinearSplitsOfAConstrainedPair) {
  // Partition 0 of 2: Q0 must precede Q1.
  const ConstraintSet constraints = Constraints(4, PlanSpace::kLinear, 0, 2);
  const PartitionIndex idx(4, constraints);
  const auto inners = [&](TableSet u) {
    std::vector<int> out;
    idx.ForEachLinearRun([&](const PartitionIndex::LinearRun& run) {
      for (int k = 0; k < run.size; ++k) {
        if (run.set[k] != u) continue;
        ForEachRunSplit(run, k, [&](int t, int64_t) { out.push_back(t); });
      }
    });
    return out;
  };
  // 1 is present, so 0 may not be the last table joined.
  EXPECT_EQ(inners(TableSet::Single(0).With(1).With(2)),
            (std::vector<int>{1, 2}));
  EXPECT_EQ(inners(TableSet::Single(0).With(2)), (std::vector<int>{0, 2}));
  EXPECT_EQ(inners(TableSet::Single(0).With(1)), (std::vector<int>{1}));
}

TEST(PartitionIndexTest, LinearRunsVisitEverySetOnceInRankOrder) {
  // A run's lanes are consecutive ranks that differ only in group 0, the
  // runs ascend, and each lane carries ForEachSet's prefix. Odd n leaves
  // a single-table group after the pairs.
  for (int n = 1; n <= 12; ++n) {
    for (uint64_t m = 1; m <= MaxWorkers(n, PlanSpace::kLinear); m *= 2) {
      for (uint64_t part = 0; part < m; ++part) {
        const PartitionIndex idx(n, Constraints(n, PlanSpace::kLinear, part, m));
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " m=" << m << " part=" << part);
        struct Prefix {
          TableSet set;
          int64_t prefix_rank;
          int top_offset;
        };
        std::vector<Prefix> want;
        idx.ForEachSet([&](TableSet s, int64_t, int64_t prefix_rank,
                           int top_offset) {
          want.push_back({s, prefix_rank, top_offset});
        });
        int64_t next = 0;
        idx.ForEachLinearRun([&](const PartitionIndex::LinearRun& run) {
          ASSERT_EQ(run.rank, next);
          ASSERT_GE(run.size, 2);
          ASSERT_LE(run.size, PartitionIndex::LinearRun::kMaxSize);
          const uint64_t group0 = n == 1 ? 1 : 3;
          ASSERT_EQ(run.set[0].bits() & group0, 0u);
          for (int k = 0; k < run.size; ++k) {
            const TableSet u = run.set[k];
            ASSERT_EQ(u.bits() & ~group0, run.set[0].bits()) << u.ToString();
            ASSERT_EQ(idx.Rank(u), run.rank + k) << u.ToString();
            const Prefix& p = want[static_cast<size_t>(run.rank + k)];
            ASSERT_EQ(u, p.set);
            ASSERT_EQ(run.prefix_rank[k], p.prefix_rank) << u.ToString();
            ASSERT_EQ(run.top_offset, p.top_offset) << u.ToString();
          }
          next += run.size;
        });
        EXPECT_EQ(next, idx.size());
      }
    }
  }
}

TEST(PartitionIndexTest, LinearSplitsAreExactlyTheAdmissibleInners) {
  // Every set's splits, group 0's and then the upper ones, are its
  // admissible inner tables in ascending order, each with its left
  // operand's rank.
  for (int n = 1; n <= 12; ++n) {
    for (uint64_t m = 1; m <= MaxWorkers(n, PlanSpace::kLinear); m *= 2) {
      for (uint64_t part = 0; part < m; ++part) {
        const ConstraintSet constraints =
            Constraints(n, PlanSpace::kLinear, part, m);
        const PartitionIndex idx(n, constraints);
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " m=" << m << " part=" << part);
        idx.ForEachLinearRun([&](const PartitionIndex::LinearRun& run) {
          for (int k = 0; k < run.size; ++k) {
            const TableSet u = run.set[k];
            std::vector<int> yielded;
            ForEachRunSplit(run, k, [&](int t, int64_t left_rank) {
              ASSERT_GE(left_rank, 0) << u.ToString() << " minus " << t;
              ASSERT_EQ(left_rank, idx.Rank(u.Without(t)))
                  << u.ToString() << " minus " << t;
              yielded.push_back(t);
            });
            ASSERT_EQ(static_cast<int>(yielded.size()), run.Splits(k));
            ASSERT_EQ(yielded, AdmissibleInners(constraints, u))
                << u.ToString();
            if (!u.IsEmpty()) {
              ASSERT_FALSE(yielded.empty()) << u.ToString();
            }
          }
        });
      }
    }
  }
}

TEST(PartitionIndexTest, SplitsOnlyAdmissibleAndComplete) {
  const int n = 9;
  for (uint64_t part : {0ull, 3ull, 7ull}) {
    const PartitionIndex idx(n, Constraints(n, PlanSpace::kBushy, part, 8));
    idx.ForEachSet([&](TableSet u, int64_t, int64_t, int) {
      if (u.Count() < 2) return;
      std::set<uint64_t> generated;
      idx.ForEachSplit(u, [&](TableSet left, int64_t lrank, int64_t rrank) {
        EXPECT_FALSE(left.IsEmpty());
        EXPECT_NE(left, u);
        EXPECT_TRUE(left.IsSubsetOf(u));
        EXPECT_EQ(lrank, idx.Rank(left));
        EXPECT_EQ(rrank, idx.Rank(u.Minus(left)));
        EXPECT_GE(lrank, 0);
        EXPECT_GE(rrank, 0);
        EXPECT_TRUE(generated.insert(left.bits()).second);
      });
      // Completeness: every subset with both sides admissible is generated.
      SubsetEnumerator subsets(u);
      int64_t expected = 0;
      while (subsets.Next()) {
        const TableSet l = subsets.current();
        if (idx.Contains(l) && idx.Contains(u.Minus(l))) ++expected;
      }
      EXPECT_EQ(static_cast<int64_t>(generated.size()), expected)
          << u.ToString();
    });
  }
}

TEST(PartitionIndexTest, BushySplitCountMatchesTheorem7) {
  // Per constrained triple, the ratio of admissible to possible operand
  // pairs is 21/27 (Theorem 7). With n = 3l tables all in constrained
  // triples, total splits (including the two trivial ones per set, which
  // the theorem's counting also includes via the "absent" state) obey:
  // sum over sets of (splits + 2) = 27^(n/3) * (21/27)^l.
  for (const int l : {0, 1, 2, 3}) {
    const int n = 9;
    const PartitionIndex idx(n, Constraints(n, PlanSpace::kBushy, 0, 1u << l));
    int64_t total_pairs = 0;  // ordered (left, right) incl. trivial
    idx.ForEachSet([&](TableSet u, int64_t, int64_t, int) {
      if (u.Count() < 2) return;
      int64_t count = 2;  // the two trivial splits are not emitted
      idx.ForEachSplit(u, [&](TableSet, int64_t, int64_t) { ++count; });
      total_pairs += count;
    });
    // Add the pairs for |u| < 2 that the closed formula counts: the empty
    // set and singletons each contribute their own (trivial) splits.
    // Instead of reverse-engineering those, compare against brute force.
    int64_t brute = 0;
    for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
      const TableSet u(bits);
      if (u.Count() < 2 || !idx.Contains(u)) continue;
      SubsetEnumerator subsets(u);
      brute += 2;
      while (subsets.Next()) {
        if (idx.Contains(subsets.current()) &&
            idx.Contains(u.Minus(subsets.current()))) {
          ++brute;
        }
      }
    }
    EXPECT_EQ(total_pairs, brute) << "l=" << l;
    if (l > 0) {
      // Reduction factor per constraint approximately 21/27 relative to
      // the unconstrained total (exact for sets fully inside triples).
      const PartitionIndex base(n, ConstraintSet::None(PlanSpace::kBushy));
      EXPECT_LT(idx.CountAdmissibleSplits(), base.CountAdmissibleSplits());
    }
  }
}

TEST(PartitionIndexTest, CountAdmissibleSplitsExactFactor) {
  // For n divisible by 3 and all triples constrained, the total number of
  // (left, right, absent) assignments over admissible sets is exactly
  // 27^(n/3) * (21/27)^l counting trivial splits; subtracting the two
  // trivial splits per admissible set of any cardinality gives
  // CountAdmissibleSplits() + corrections for |u| < 2. We verify the
  // exact closed form on the full assignment count.
  const int n = 9;
  for (int l = 0; l <= 3; ++l) {
    const PartitionIndex idx(n, Constraints(n, PlanSpace::kBushy, 0, 1u << l));
    int64_t assignments = 0;  // splits incl. trivial, over ALL admissible u
    idx.ForEachSet([&](TableSet u, int64_t, int64_t, int) {
      if (u.Count() >= 2) {
        assignments += 2;
        idx.ForEachSplit(u, [&](TableSet, int64_t, int64_t) { ++assignments; });
      } else {
        // |u| in {0, 1}: only the trivial assignments exist; count the
        // subset pairs (l, u\l): empty set has 1, singleton has 2.
        assignments += u.IsEmpty() ? 1 : 2;
      }
    });
    const double expected = std::pow(27.0, 3) * std::pow(21.0 / 27.0, l);
    EXPECT_DOUBLE_EQ(static_cast<double>(assignments), expected) << l;
  }
}

/// Skew-freeness: all partitions of one decomposition have identical
/// admissible-set counts and identical per-cardinality histograms.
class SkewTest
    : public ::testing::TestWithParam<std::tuple<int, int, PlanSpace>> {};

TEST_P(SkewTest, AllPartitionsSameSize) {
  const auto [n, m, space] = GetParam();
  std::vector<int64_t> sizes;
  std::vector<std::vector<int64_t>> histograms;
  for (int part = 0; part < m; ++part) {
    const PartitionIndex idx(n, Constraints(n, space, part, m));
    sizes.push_back(idx.size());
    std::vector<int64_t> hist;
    for (int k = 0; k <= n; ++k) hist.push_back(idx.CountSetsOfCard(k));
    histograms.push_back(std::move(hist));
  }
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[0]);
    EXPECT_EQ(histograms[i], histograms[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, SkewTest,
    ::testing::Values(std::make_tuple(8, 16, PlanSpace::kLinear),
                      std::make_tuple(10, 8, PlanSpace::kLinear),
                      std::make_tuple(13, 32, PlanSpace::kLinear),
                      std::make_tuple(9, 8, PlanSpace::kBushy),
                      std::make_tuple(12, 16, PlanSpace::kBushy),
                      std::make_tuple(14, 8, PlanSpace::kBushy)));

/// Partition disjointness-and-coverage at the admissible-set level: every
/// non-singleton set is admissible in exactly
/// m * product over constrained groups of (its per-group share).
class UnionCoverageTest
    : public ::testing::TestWithParam<std::tuple<int, int, PlanSpace>> {};

TEST_P(UnionCoverageTest, UnionOfPartitionsIsPowerSet) {
  const auto [n, m, space] = GetParam();
  std::vector<PartitionIndex> indexes;
  indexes.reserve(m);
  for (int part = 0; part < m; ++part) {
    indexes.emplace_back(n, Constraints(n, space, part, m));
  }
  for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
    const TableSet s(bits);
    bool anywhere = false;
    for (const PartitionIndex& idx : indexes) {
      if (idx.Contains(s)) {
        anywhere = true;
        break;
      }
    }
    if (s.Count() == 1) continue;  // singletons handled separately
    EXPECT_TRUE(anywhere) << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, UnionCoverageTest,
    ::testing::Values(std::make_tuple(8, 16, PlanSpace::kLinear),
                      std::make_tuple(9, 4, PlanSpace::kLinear),
                      std::make_tuple(9, 8, PlanSpace::kBushy),
                      std::make_tuple(11, 8, PlanSpace::kBushy)));

TEST(PartitionIndexTest, LeftoverTablesUnconstrained) {
  // n = 7 linear: three pairs + one leftover table (6).
  const PartitionIndex idx(7, Constraints(7, PlanSpace::kLinear, 0, 8));
  EXPECT_EQ(idx.size(), 27 * 2);  // 3^3 pair digits * 2 leftover states
  EXPECT_TRUE(idx.Contains(TableSet::Single(6)));
  EXPECT_TRUE(idx.Contains(TableSet::AllTables(7)));
}

TEST(PartitionIndexTest, SingleTableQuery) {
  const PartitionIndex idx(1, ConstraintSet::None(PlanSpace::kLinear));
  EXPECT_EQ(idx.size(), 2);  // {} and {0}
  EXPECT_TRUE(idx.Contains(TableSet::Single(0)));
}

/// A DP that stores nothing and checks the order WalkPartition hands it
/// sets and splits in: each admissible set of two or more tables once,
/// in ascending rank, with End's rank equal to Rank(u), and every operand
/// stored before a set that joins it, at a rank below the set's. An
/// operand entry carries its rank; a linear split's Scan carries -1 - t.
class WalkOrderProbe {
 public:
  struct State {
    TableSet u;
    int64_t rank;
  };
  struct Operand {
    int64_t rank;
  };

  explicit WalkOrderProbe(const PartitionIndex& index)
      : index_(index), stored_(static_cast<size_t>(index.size()), false) {
    for (int t = 0; t < index.num_tables(); ++t) {
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) stored_[static_cast<size_t>(rank)] = true;
    }
  }

  State Begin(TableSet u, double /*product*/) const {
    return {u, index_.Rank(u)};
  }

  void Join(State* s, TableSet left, int64_t left_rank, const Operand& l,
            const Operand& r) {
    Check(l.rank == index_.Rank(left), "left rank is not Rank(left)", s->u);
    Check(left_rank == l.rank, "left_rank is not the left entry's", s->u);
    CheckStoredBelow(l.rank, *s);
    const TableSet right = s->u.Minus(left);
    if (index_.space() == PlanSpace::kLinear) {
      Check(r.rank < 0 && right == TableSet::Single(static_cast<int>(
                                       -1 - r.rank)),
            "linear right operand is not the inner table's scan", s->u);
    } else {
      Check(r.rank == index_.Rank(right), "right rank is not Rank(right)",
            s->u);
      CheckStoredBelow(r.rank, *s);
    }
  }

  void End(State* s, int64_t rank) {
    Check(s->u.Count() >= 2, "a set of fewer than two tables", s->u);
    Check(rank == s->rank && rank >= 0, "rank is not Rank(u)", s->u);
    Check(rank > last_rank_, "ranks do not ascend", s->u);
    if (rank < 0) return;
    Check(!stored_[static_cast<size_t>(rank)], "set visited twice", s->u);
    stored_[static_cast<size_t>(rank)] = true;
    last_rank_ = rank;
    ++visited_;
  }

  Operand Entry(int64_t rank) const { return {rank}; }
  Operand Scan(int t) const { return {-1 - t}; }

  int64_t visited() const { return visited_; }
  const std::string& first_error() const { return first_error_; }

 private:
  void CheckStoredBelow(int64_t operand_rank, const State& s) {
    Check(operand_rank >= 0 && operand_rank < s.rank,
          "operand rank is not below the set's", s.u);
    Check(operand_rank >= 0 && stored_[static_cast<size_t>(operand_rank)],
          "operand used before it was stored", s.u);
  }

  void Check(bool ok, const char* what, TableSet u) {
    if (!ok && first_error_.empty()) first_error_ = what + (" at " + u.ToString());
  }

  const PartitionIndex& index_;
  std::vector<bool> stored_;
  int64_t last_rank_ = -1;
  int64_t visited_ = 0;
  std::string first_error_;
};

TEST(PartitionIndexTest, WalkVisitsSetsInRankOrderAfterTheirOperands) {
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    for (int n = 1; n <= 12; ++n) {
      const Query q = QueryGenerator(GeneratorOptions(), 40 + n).Generate(n);
      for (uint64_t m = 1; m <= MaxWorkers(n, space); m *= 2) {
        for (uint64_t part = 0; part < m; ++part) {
          const PartitionIndex idx(n, Constraints(n, space, part, m));
          WalkOrderProbe probe(idx);
          const int64_t splits = WalkPartition(q, idx, &probe);
          SCOPED_TRACE(testing::Message()
                       << PlanSpaceName(space) << " n=" << n << " m=" << m
                       << " part=" << part);
          ASSERT_EQ(probe.first_error(), "");
          int64_t admissible = 0;
          for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
            const TableSet u(bits);
            if (u.Count() >= 2 && idx.Contains(u)) ++admissible;
          }
          EXPECT_EQ(probe.visited(), admissible);
          if (space == PlanSpace::kBushy) {
            EXPECT_EQ(splits, idx.CountAdmissibleSplits());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mpqopt
