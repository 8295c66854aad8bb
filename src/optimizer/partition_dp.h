// Copyright 2026 mpqopt authors.
//
// Paper Algorithm 2, written once. The DP optimizers the paper
// parallelizes differ only in the pruning function (Sections 4 and 5.4),
// so each variant here is a class with one per-set shape:
//
//   Begin(u, product)          per-set state, e.g. u's output cardinality
//                              from its unclamped product
//   Join(&state, left, left_rank, le, re)
//                              one split (left, u \ left) with the left
//                              operand's rank and the operands' entries:
//                              the pruning function
//   End(&state, rank)          finishes u and stores its entry at `rank`
//   Entry(rank), Scan(t)       a stored set's entry; table t's scans
//   Node(rank, idx)            what BuildPlan reads of kept plan `idx` of
//   Node(Scan(t), idx)         a stored set or of a scan
//   JoinRun(run, products)     optional: Begin, Join and End for all the
//                              sets of a linear run at once (the scalar
//                              DP's lane kernel)
//
// and one walk and one plan builder drive every variant: WalkPartition
// visits the admissible sets of a partition in ascending rank, estimates
// each one's rows and hands its admissible splits to the DP (Algorithm
// 5), and BuildPlan materializes a kept plan by recursion over left
// operand sets. The scalar DP keeps one word per set apart from what its
// splits read: the kept split's left-operand rank in the low 56 bits and
// its algorithm above them, which Node decodes with
// PartitionIndex::SetOfRank. The other DPs keep the left set and ignore
// the rank. Ascending rank is a valid DP order because a proper subset
// always has a smaller rank (partition_index.h), so both operands of
// every split are stored before the set that joins them; a set's splits
// come in the same order as in any other valid order, so the plans,
// costs and counters do not depend on it. The walk keeps every set's
// unclamped product by rank and folds each set's from its prefix's
// (cost/cardinality.h), so no DP estimates cardinalities itself; SMA's
// replicas, which join one set at a time, hand Begin the full fold,
// which has the same bits.
//
// OpenPartition is every DP's one entry path. It keeps the indexes this
// thread built last, so a worker that serves the same partitions again
// (an 8-table query at m = 16 has 16) builds each only once.
//
// The scalar and Pareto DPs live in this header because two callers run
// them: the MPQ worker (RunPartitionDp, dp.cc) over its partition, and
// SMA's per-node replicas (sma/sma_node.cc), which address a memo over
// the unconstrained index by bit pattern and join one set at a time.
// The interesting-orders (io_dp.cc) and parametric (pqo.cc) DPs take the
// same shape.

#ifndef MPQOPT_OPTIMIZER_PARTITION_DP_H_
#define MPQOPT_OPTIMIZER_PARTITION_DP_H_

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "catalog/query.h"
#include "common/status.h"
#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "optimizer/pruning.h"
#include "partition/partition_index.h"
#include "plan/plan.h"

namespace mpqopt {

/// The entry checks every partition DP shares: a valid query, constraints
/// for `space`, and a partition of at most `max_memo_entries` sets. Sets
/// `*index` to the partition's index, taken from this thread's cache of
/// the 32 indexes it opened last (keyed on the table count and the
/// constraint set) or built into it. The index stays valid until this
/// thread's next OpenPartition call. Every check runs on every call, hit
/// or miss.
Status OpenPartition(const Query& query, const ConstraintSet& constraints,
                     PlanSpace space, int64_t max_memo_entries,
                     const PartitionIndex** index);

/// Paper Algorithm 2 over one partition of `query`: visits every
/// admissible set of two or more tables in ascending rank, hands each
/// admissible split to `dp` (a linear split's right operand is its inner
/// table's Scan) and stores the set. Returns the number of splits.
///
/// Each set's unclamped product is its prefix's, continued over its top
/// group's tables (CardinalityEstimator::Extend), kept in one array by
/// rank: the prefix precedes the set, so its product is there already.
/// Debug builds check it against the full fold on every set.
///
/// A linear partition is walked in runs (PartitionIndex::LinearRun). A DP
/// with a JoinRun(run, products) member, the scalar DP, takes every run
/// whose sets all hold two or more tables at once; every other set gets
/// Begin, its splits in ascending inner table and End, as a bushy set
/// gets its splits in ForEachSplit's order.
template <typename Dp>
int64_t WalkPartition(const Query& query, const PartitionIndex& index,
                      Dp* dp) {
  MPQOPT_CHECK_EQ(query.num_tables(), index.num_tables());
  const CardinalityEstimator estimator(query);
  std::vector<double> product(static_cast<size_t>(index.size()));
  product[0] = 1.0;  // the empty set's, which is its own prefix
  const auto fold = [&](TableSet u, int64_t rank, int64_t prefix_rank,
                        int top_offset) {
    const double raw = estimator.Extend(
        product[static_cast<size_t>(prefix_rank)], u, top_offset);
    MPQOPT_DCHECK(std::bit_cast<uint64_t>(raw) ==
                  std::bit_cast<uint64_t>(estimator.Product(u)));
    product[static_cast<size_t>(rank)] = raw;
  };
  int64_t splits = 0;
  if (index.space() == PlanSpace::kBushy) {
    index.ForEachSet([&](TableSet u, int64_t rank, int64_t prefix_rank,
                         int top_offset) {
      fold(u, rank, prefix_rank, top_offset);
      const uint64_t bits = u.bits();
      if ((bits & (bits - 1)) == 0) return;  // the empty set or a scan
      typename Dp::State state =
          dp->Begin(u, product[static_cast<size_t>(rank)]);
      index.ForEachSplit(
          u, [&](TableSet left, int64_t left_rank, int64_t right_rank) {
            ++splits;
            dp->Join(&state, left, left_rank, dp->Entry(left_rank),
                     dp->Entry(right_rank));
          });
      dp->End(&state, rank);
    });
    return splits;
  }
  index.ForEachLinearRun([&](const PartitionIndex::LinearRun& run) {
    for (int k = 0; k < run.size; ++k) {
      fold(run.set[k], run.rank + k, run.prefix_rank[k], run.top_offset);
    }
    if constexpr (requires { dp->JoinRun(run, product.data()); }) {
      // Lane 0 holds the tables above group 0 alone; with two of them,
      // every lane is a join.
      const uint64_t upper = run.set[0].bits();
      if ((upper & (upper - 1)) != 0) {
        for (int k = 0; k < run.size; ++k) splits += run.Splits(k);
        dp->JoinRun(run, &product[static_cast<size_t>(run.rank)]);
        return;
      }
    }
    for (int k = 0; k < run.size; ++k) {
      const TableSet u = run.set[k];
      const uint64_t bits = u.bits();
      if ((bits & (bits - 1)) == 0) continue;  // the empty set or a scan
      splits += run.Splits(k);
      const int64_t rank = run.rank + k;
      typename Dp::State state =
          dp->Begin(u, product[static_cast<size_t>(rank)]);
      const auto join = [&](int t, int64_t delta) {
        const int64_t left_rank = rank - delta;
        dp->Join(&state, u.Without(t), left_rank, dp->Entry(left_rank),
                 dp->Scan(t));
      };
      const PartitionIndex::InnerTables& lower = run.lower[k];
      for (int i = 0; i < lower.count; ++i) {
        join(lower.table[i], lower.delta[i]);
      }
      for (int i = 0; i < run.num_upper; ++i) {
        join(run.upper_table[i], run.upper_delta[i]);
      }
      dp->End(&state, rank);
    }
  });
  return splits;
}

/// One kept plan as BuildPlan reads it. A scan uses only card and cost.
struct DpNode {
  double card = 0;
  CostVector cost;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
  TableSet left;           ///< the left operand's tables
  uint32_t left_idx = 0;   ///< the operand plans within their sets' entries
  uint32_t right_idx = 0;
};

/// Materializes kept plan `idx` of the stored set `s` into `arena`.
template <typename Dp>
PlanId BuildPlan(const PartitionIndex& index, const Dp& dp, TableSet s,
                 uint32_t idx, PlanArena* arena) {
  if (s.Count() == 1) {
    const DpNode scan = dp.Node(dp.Scan(s.Lowest()), idx);
    return arena->MakeScan(s.Lowest(), scan.card, scan.cost);
  }
  const int64_t rank = index.Rank(s);
  MPQOPT_CHECK_GE(rank, 0);
  const DpNode join = dp.Node(rank, idx);
  const PlanId lid = BuildPlan(index, dp, join.left, join.left_idx, arena);
  const PlanId rid =
      BuildPlan(index, dp, s.Minus(join.left), join.right_idx, arena);
  return arena->MakeJoin(join.alg, lid, rid, join.card, join.cost);
}

inline constexpr double kInfiniteCost =
    std::numeric_limits<double>::infinity();

/// What the scalar DP's split kernel reads of a stored set or a scan:
/// its best plan's cost and its operand terms, the set's cardinality
/// with its join-time terms, prepared once when the set is stored rather
/// than for every split that uses it. A set not stored yet costs
/// kInfiniteCost.
struct ScalarOperand {
  double cost = kInfiniteCost;
  JoinOperand op;
};
static_assert(sizeof(ScalarOperand) == 32);

// Both kernels take a split's candidates in kJoinAlgorithms order and
// skip a dominated sort-merge join as the last, after the hash join that
// covers it.
static_assert(kNumJoinAlgorithms == 3 &&
              kJoinAlgorithms[0] == JoinAlgorithm::kBlockNestedLoop &&
              kJoinAlgorithms[1] == JoinAlgorithm::kHashJoin &&
              kJoinAlgorithms[2] == JoinAlgorithm::kSortMergeJoin);

/// `a < b ? a : b`, so `b` when they are equal or either is NaN: one
/// minsd on x86-64, where GCC 12 may otherwise compile the compare into a
/// branch.
inline double MinSd(double a, double b) {
#if defined(__SSE2__)
  return _mm_cvtsd_f64(_mm_min_sd(_mm_set_sd(a), _mm_set_sd(b)));
#else
  return a < b ? a : b;
#endif
}

/// Folds candidate `cost` of algorithm `alg` into a running first minimum
/// (`*best`, `*best_alg`): the candidate replaces it only if strictly
/// cheaper, so a tie or a NaN keeps the earlier one. GCC 12 compiles a
/// ternary into a branch when its compare also picks the algorithm, so
/// the compare is hinted as a coin flip and the algorithm is selected
/// with a mask.
inline void FoldFirstMinimum(double cost, JoinAlgorithm alg, double* best,
                             uint64_t* best_alg) {
  const bool less = __builtin_expect_with_probability(cost < *best, 1, 0.5);
  *best_alg ^= (*best_alg ^ static_cast<uint64_t>(alg)) & (uint64_t{0} - less);
  *best = MinSd(cost, *best);
}

/// Two doubles, and two 64-bit words: the lanes of the scalar DP's run
/// kernel. Pairs, because a 32-byte vector at the baseline ISA (SSE2)
/// goes through memory. Each lane is one set's arithmetic, in the same
/// expressions and order as the scalar code, so its bits are the same.
using Lanes = double __attribute__((vector_size(16)));
using LaneWords = uint64_t __attribute__((vector_size(16)));

/// MinSd in each lane: `a < b ? a : b`, one minpd on x86-64.
inline Lanes MinLanes(Lanes a, Lanes b) {
#if defined(__SSE2__)
  return _mm_min_pd(a, b);
#else
  return a < b ? a : b;
#endif
}

/// FoldFirstMinimum in each lane, the algorithm given and kept as its
/// bits of a kept word.
inline void FoldFirstMinimum(Lanes cost, LaneWords alg, Lanes* best,
                             LaneWords* best_alg) {
  *best_alg = cost < *best ? alg : *best_alg;
  *best = MinLanes(cost, *best);
}

/// The classical DP: keeps the single cheapest plan per table set, in
/// O(1) space per set (Theorem 4) and two arrays indexed by rank: the
/// operands the split kernel reads (32 bytes), and a kept word (8 bytes)
/// that only BuildPlan and SMA read. The kept word holds the kept split's
/// left-operand rank in its low 56 bits and its join algorithm above
/// them; it is 0 for a scan or a set not stored yet, since a join's left
/// operand is non-empty and only the empty set has rank 0.
class ScalarDp {
 public:
  /// The set under construction: its best split so far (cost NaN and
  /// kept word 0 before the first) and its output terms.
  struct State {
    double cost;
    uint64_t kept;
    double out_card;
    double out_time;
  };

  static constexpr int kAlgorithmShift = 56;
  static constexpr uint64_t kRankMask = (uint64_t{1} << kAlgorithmShift) - 1;

  static uint64_t KeptWord(uint64_t left_rank, JoinAlgorithm alg) {
    return left_rank | static_cast<uint64_t>(alg) << kAlgorithmShift;
  }
  static int64_t LeftRank(uint64_t kept) {
    return static_cast<int64_t>(kept & kRankMask);
  }
  static JoinAlgorithm Algorithm(uint64_t kept) {
    return static_cast<JoinAlgorithm>(kept >> kAlgorithmShift);
  }

  /// Starts a memo of index.size() slots holding the admissible
  /// singletons' scans (inadmissible singletons are provably never used
  /// as operands).
  ScalarDp(const Query& query, const PartitionIndex& index,
           const CostModel& model)
      : index_(index),
        model_(model),
        sort_merge_(!model.SortMergeDominated()),
        operand_(static_cast<size_t>(index.size())),
        kept_(static_cast<size_t>(index.size()), 0) {
    MPQOPT_CHECK_LE(static_cast<uint64_t>(index.size()), kRankMask + 1);
    for (int t = 0; t < query.num_tables(); ++t) {
      const double card = query.table(t).cardinality;
      scan_[t] = {model_.ScanCost(card).time(),
                  model_.Operand(card, sort_merge_)};
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) operand_[static_cast<size_t>(rank)] = scan_[t];
    }
  }
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(ScalarDp);

  State Begin(TableSet /*u*/, double product) const {
    const double card = CardinalityEstimator::Clamp(product);
    return {std::numeric_limits<double>::quiet_NaN(), 0, card,
            model_.OutputTime(card)};
  }

  /// One split: its cost is the first minimum of its join algorithms in
  /// kJoinAlgorithms order (sort-merge only while it is not dominated),
  /// and it replaces the set's best if strictly cheaper, or if it is the
  /// set's first split. So the set keeps its first minimum in split
  /// order, and a set whose every candidate costs +inf (an overflow)
  /// keeps its first split. An operand not stored yet costs +inf, so its
  /// splits never beat a stored one's.
  void Join(State* s, TableSet /*left*/, int64_t left_rank,
            const ScalarOperand& l, const ScalarOperand& r) const {
    const double base = l.cost + r.cost;
    const auto cost = [&](JoinAlgorithm a) {
      return base + model_.LocalJoinTime(a, l.op, r.op, s->out_time);
    };
    // The split's first minimum; a NaN candidate never wins, so neither
    // is it ever NaN.
    double split = MinSd(cost(JoinAlgorithm::kBlockNestedLoop), kInfiniteCost);
    uint64_t alg = static_cast<uint64_t>(JoinAlgorithm::kBlockNestedLoop);
    FoldFirstMinimum(cost(JoinAlgorithm::kHashJoin), JoinAlgorithm::kHashJoin,
                     &split, &alg);
    if (sort_merge_) {
      FoldFirstMinimum(cost(JoinAlgorithm::kSortMergeJoin),
                       JoinAlgorithm::kSortMergeJoin, &split, &alg);
    }
    Take(s, split, KeptWord(static_cast<uint64_t>(left_rank),
                            static_cast<JoinAlgorithm>(alg)));
  }

  /// Joins the sets of a linear run, every one of two or more tables,
  /// whose unclamped products are products[0 .. run.size): the same
  /// entries as Begin, Join over each set's splits in ascending inner
  /// table, and End.
  ///
  /// The upper splits (PartitionIndex::LinearRun) are the same in every
  /// lane but for the left operand, which sits at consecutive ranks, so
  /// they are joined two lanes at a time; a lane past the run repeats its
  /// last set and is dropped. Each lane keeps Join's first minimum over
  /// them. Then each set folds its group 0 splits, which come first, with
  /// Join, and takes its lane's minimum only if that is strictly cheaper
  /// (Take): no split costs NaN, so that is the first minimum over all
  /// its splits in order, with the same cost bits. A set's group 0 splits
  /// read lanes before it, stored by then.
  void JoinRun(const PartitionIndex::LinearRun& run, const double* products) {
    constexpr int kLanes = PartitionIndex::LinearRun::kMaxSize;
    const int last = run.size - 1;
    State state[kLanes];
    double upper_cost[kLanes];
    uint64_t upper_kept[kLanes];
    for (int k = 0; k < run.size; ++k) {
      state[k] = Begin(run.set[k], products[k]);
    }
    for (int k = 0; k < run.size; k += 2) {
      const int k1 = k < last ? k + 1 : last;
      const Lanes out_time = {state[k].out_time, state[k1].out_time};
      // Each lane's best starts as a set's does (Begin).
      Lanes best = Lanes{} + std::numeric_limits<double>::quiet_NaN();
      LaneWords kept = {};
      JoinUpper(run, k, k1, out_time, &best, &kept);
      upper_cost[k] = best[0];
      upper_kept[k] = kept[0];
      upper_cost[k1] = best[1];
      upper_kept[k1] = kept[1];
    }
    for (int k = 0; k < run.size; ++k) {
      const int64_t rank = run.rank + k;
      const PartitionIndex::InnerTables& lower = run.lower[k];
      for (int i = 0; i < lower.count; ++i) {
        const int t = lower.table[i];
        const int64_t left_rank = rank - lower.delta[i];
        Join(&state[k], run.set[k].Without(t), left_rank, Entry(left_rank),
             Scan(t));
      }
      Take(&state[k], upper_cost[k], upper_kept[k]);
      End(&state[k], rank);
    }
  }

  void End(State* s, int64_t rank) {
    MPQOPT_CHECK(s->kept != 0);  // every set has a split
    Store(rank, s->out_card, s->cost, s->kept);
  }

  /// Stores a set of `card` rows at `rank`: its best plan's cost, the
  /// operand terms of `card` and the plan's kept word.
  void Store(int64_t rank, double card, double cost, uint64_t kept) {
    operand_[static_cast<size_t>(rank)] = {cost,
                                           model_.Operand(card, sort_merge_)};
    kept_[static_cast<size_t>(rank)] = kept;
  }

  const ScalarOperand& Entry(int64_t rank) const {
    return operand_[static_cast<size_t>(rank)];
  }
  uint64_t Kept(int64_t rank) const {
    return kept_[static_cast<size_t>(rank)];
  }
  const ScalarOperand& Scan(int t) const { return scan_[t]; }
  DpNode Node(int64_t rank, uint32_t /*idx*/) const {
    const ScalarOperand& e = Entry(rank);
    const uint64_t kept = Kept(rank);
    return {e.op.card, CostVector::Scalar(e.cost), Algorithm(kept),
            index_.SetOfRank(LeftRank(kept))};
  }
  DpNode Node(const ScalarOperand& scan, uint32_t /*idx*/) const {
    return {scan.op.card, CostVector::Scalar(scan.cost), JoinAlgorithm::kScan,
            TableSet()};
  }

  size_t ApproxBytes() const {
    return operand_.capacity() * sizeof(ScalarOperand) +
           kept_.capacity() * sizeof(uint64_t);
  }

 private:
  /// Folds a split of cost `cost` and kept word `kept` into the set's
  /// best: it replaces it if strictly cheaper, or if it is the set's
  /// first. The best starts as NaN, which fails every comparison, so the
  /// first split is taken whatever it costs. On a tie MinSd returns the
  /// split's cost, which has the best's bits: no cost is -0, since a scan
  /// costs its positive card and a sum is -0 only if both addends are.
  static void Take(State* s, double cost, uint64_t kept) {
    const bool take =
        __builtin_expect_with_probability(!(s->cost <= cost), 1, 0.5);
    s->kept ^= (s->kept ^ kept) & (uint64_t{0} - take);
    s->cost = MinSd(s->cost, cost);
  }

  /// Folds the upper splits of lanes k and k1 of `run` (JoinRun) into
  /// each lane's best cost and kept word, as Join folds a set's splits.
  void JoinUpper(const PartitionIndex::LinearRun& run, int k, int k1,
                 Lanes out_time, Lanes* best, LaneWords* kept) const {
    const Lanes infinity = Lanes{} + kInfiniteCost;
    // Each algorithm's bits of a kept word.
    const LaneWords bnl_alg =
        LaneWords{} + KeptWord(0, JoinAlgorithm::kBlockNestedLoop);
    const LaneWords hj_alg =
        LaneWords{} + KeptWord(0, JoinAlgorithm::kHashJoin);
    const LaneWords smj_alg =
        LaneWords{} + KeptWord(0, JoinAlgorithm::kSortMergeJoin);
    const LaneWords rank = {static_cast<uint64_t>(run.rank + k),
                            static_cast<uint64_t>(run.rank + k1)};
    const ScalarOperand* left0 = &operand_[static_cast<size_t>(run.rank + k)];
    const ptrdiff_t step = k1 - k;  // 0 for a dropped lane
    for (int i = 0; i < run.num_upper; ++i) {
      const int64_t delta = run.upper_delta[i];
      const ScalarOperand& a = left0[-delta];
      const ScalarOperand& b = (&a)[step];
      const ScalarOperand& r = scan_[run.upper_table[i]];
      const JoinTerms<Lanes> l = {{a.op.card, b.op.card},
                                  {a.op.blocks, b.op.blocks},
                                  {a.op.sort, b.op.sort}};
      const Lanes base = Lanes{a.cost, b.cost} + r.cost;
      const auto cost = [&](JoinAlgorithm alg) {
        return base + model_.LocalJoinTime(alg, l, r.op, out_time);
      };
      // Join's expressions, lane by lane.
      Lanes split = MinLanes(cost(JoinAlgorithm::kBlockNestedLoop), infinity);
      LaneWords alg = bnl_alg;
      FoldFirstMinimum(cost(JoinAlgorithm::kHashJoin), hj_alg, &split, &alg);
      if (sort_merge_) {
        FoldFirstMinimum(cost(JoinAlgorithm::kSortMergeJoin), smj_alg, &split,
                         &alg);
      }
      const LaneWords word = (rank - static_cast<uint64_t>(delta)) | alg;
      *kept = *best <= split ? *kept : word;
      *best = MinLanes(*best, split);
    }
  }

  const PartitionIndex& index_;
  const CostModel& model_;
  /// Whether Join costs sort-merge joins: only while they are not
  /// dominated (CostModel::SortMergeDominated).
  const bool sort_merge_;
  std::vector<ScalarOperand> operand_;
  std::vector<uint64_t> kept_;
  ScalarOperand scan_[kMaxTables];
};

/// One plan of a Pareto frontier in the multi-objective DP. left_idx and
/// right_idx select the operand plans within the children's frontiers.
struct ParetoPlanRef {
  CostVector cost;
  uint64_t left_bits = 0;
  uint32_t left_idx = 0;
  uint32_t right_idx = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};

/// Memo entry of the multi-objective DP: the alpha-approximate Pareto set
/// of plans for one admissible table set, `num_plans` consecutive plans
/// of the DP's one plan vector from offset `first` on (ParetoDp::Plan).
/// A set not stored yet has no plans.
struct ParetoEntry {
  JoinOperand op;
  size_t first = 0;
  uint32_t num_plans = 0;
};

/// The multi-objective DP: keeps an alpha-approximate Pareto set of
/// plans per table set (see pruning.h).
class ParetoDp {
 public:
  /// The set under construction's output terms; its frontier is built in
  /// frontier().
  struct State {
    double out_card;
    double out_time;
  };

  ParetoDp(const Query& query, const PartitionIndex& index,
           const CostModel& model, double alpha)
      : model_(model),
        alpha_(alpha),
        num_algorithms_(model.SortMergeDominated() && alpha >= 1
                            ? kNumJoinAlgorithms - 1
                            : kNumJoinAlgorithms),
        memo_(static_cast<size_t>(index.size())) {
    // Table t's scan is plan t.
    for (int t = 0; t < query.num_tables(); ++t) {
      const double card = query.table(t).cardinality;
      plans_.push_back({model_.ScanCost(card), 0, 0, 0, JoinAlgorithm::kScan});
      scan_[t] = {model_.Operand(card, SortMerge()), static_cast<size_t>(t),
                  1};
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = scan_[t];
    }
  }
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(ParetoDp);

  State Begin(TableSet /*u*/, double product) {
    scratch_.clear();
    const double card = CardinalityEstimator::Clamp(product);
    return {card, model_.OutputTime(card)};
  }

  /// Offers every (left plan, right plan, algorithm) of one split to the
  /// frontier under construction. A dominated sort-merge join is not
  /// offered: the hash join over the same operand plans, offered just
  /// before it, or the incumbent that rejected that hash join, would
  /// reject it (cost_model.h). plans_costed still counts it.
  void Join(State* s, TableSet left, int64_t /*left_rank*/,
            const ParetoEntry& l, const ParetoEntry& r) {
    // The operator-local terms depend on the split alone, not on which
    // operand plans it combines.
    double local_time[kNumJoinAlgorithms];
    double local_buffer[kNumJoinAlgorithms];
    for (int a = 0; a < num_algorithms_; ++a) {
      local_time[a] =
          model_.LocalJoinTime(kJoinAlgorithms[a], l.op, r.op, s->out_time);
      local_buffer[a] =
          model_.LocalJoinBuffer(kJoinAlgorithms[a], l.op.card, r.op.card);
    }
    plans_costed_ += int64_t{l.num_plans} * r.num_plans * kNumJoinAlgorithms;
    const auto cost_of = [](const ParetoPlanRef& p) -> const CostVector& {
      return p.cost;
    };
    // The frontier under construction is scratch_, so these stay valid.
    const ParetoPlanRef* const lp = plans_.data() + l.first;
    const ParetoPlanRef* const rp = plans_.data() + r.first;
    for (uint32_t li = 0; li < l.num_plans; ++li) {
      for (uint32_t ri = 0; ri < r.num_plans; ++ri) {
        for (int a = 0; a < num_algorithms_; ++a) {
          ParetoPlanRef cand;
          cand.cost = model_.ComposeJoinCost(lp[li].cost, rp[ri].cost,
                                             local_time[a], local_buffer[a]);
          cand.left_bits = left.bits();
          cand.left_idx = li;
          cand.right_idx = ri;
          cand.alg = kJoinAlgorithms[a];
          ParetoInsert(&scratch_, cand, cost_of, alpha_);
        }
      }
    }
  }

  void End(State* s, int64_t rank) {
    MPQOPT_CHECK(!scratch_.empty());
    Store(rank, s->out_card, scratch_.data(), scratch_.size());
  }

  /// Stores a finished frontier at `rank`, appended to the plan vector,
  /// with the operand terms of `card` rows. `plans` must not point into
  /// the plan vector, which the append may move.
  void Store(int64_t rank, double card, const ParetoPlanRef* plans,
             size_t count) {
    ParetoEntry& e = memo_[static_cast<size_t>(rank)];
    e.op = model_.Operand(card, SortMerge());
    e.first = plans_.size();
    e.num_plans = static_cast<uint32_t>(count);
    plans_.insert(plans_.end(), plans, plans + count);
  }

  /// The frontier of the set under construction (since the last Begin).
  const std::vector<ParetoPlanRef>& frontier() const { return scratch_; }
  int64_t plans_costed() const { return plans_costed_; }

  const ParetoEntry& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const ParetoEntry& Scan(int t) const { return scan_[t]; }
  /// Plan `idx` of the frontier stored in `e`.
  const ParetoPlanRef& Plan(const ParetoEntry& e, uint32_t idx) const {
    return plans_[e.first + idx];
  }
  DpNode Node(const ParetoEntry& e, uint32_t idx) const {
    const ParetoPlanRef& p = Plan(e, idx);
    return {e.op.card, p.cost, p.alg, TableSet(p.left_bits), p.left_idx,
            p.right_idx};
  }
  DpNode Node(int64_t rank, uint32_t idx) const {
    return Node(Entry(rank), idx);
  }

  size_t ApproxBytes() const {
    return memo_.capacity() * sizeof(ParetoEntry) +
           (plans_.capacity() + scratch_.capacity()) * sizeof(ParetoPlanRef);
  }

 private:
  bool SortMerge() const { return num_algorithms_ == kNumJoinAlgorithms; }

  const CostModel& model_;
  double alpha_;
  /// The leading kJoinAlgorithms that Join offers: all three, or the two
  /// before a dominated sort-merge join (CostModel::SortMergeDominated;
  /// the rejection argument also needs alpha >= 1, which RunPartitionDp
  /// checks and SMA does not).
  const int num_algorithms_;
  std::vector<ParetoEntry> memo_;
  /// Every finished frontier, the scans first; scratch_ is the one
  /// mutable frontier under construction, reused across sets.
  std::vector<ParetoPlanRef> plans_;
  std::vector<ParetoPlanRef> scratch_;
  int64_t plans_costed_ = 0;
  ParetoEntry scan_[kMaxTables];
};

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_PARTITION_DP_H_
