// Copyright 2026 mpqopt authors.
//
// Paper Algorithm 2, written once. The DP optimizers the paper
// parallelizes differ only in the pruning function (Sections 4 and 5.4),
// so each variant here is a class with one per-set shape:
//
//   Begin(u)                   per-set state, e.g. u's output cardinality
//   Join(&state, left, le, re) one split (left, u \ left) with the
//                              operands' entries: the pruning function
//   End(&state, rank)          finishes u and stores its entry at `rank`
//   Entry(rank), Scan(t)       a stored set's entry; table t's scans
//   Node(entry, idx)           what BuildPlan reads of kept plan `idx`
//
// and one walk and one plan builder drive every variant: WalkPartition
// visits the admissible sets of a partition in ascending rank and hands
// each one's admissible splits to the DP (Algorithm 5), and BuildPlan
// materializes a kept plan by recursion over left operand sets. Ascending
// rank is a valid DP order because a proper subset always has a smaller
// rank (partition_index.h), so both operands of every split are stored
// before the set that joins them; a set's splits come in the same order
// as in any other valid order, so the plans, costs and counters do not
// depend on it.
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

#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "catalog/query.h"
#include "common/arena.h"
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

/// Paper Algorithm 2 over one partition: visits every admissible set of
/// two or more tables in ascending rank, hands each admissible split to
/// `dp` (a linear split's right operand is its inner table's Scan) and
/// stores the set. Returns the number of splits.
template <typename Dp>
int64_t WalkPartition(const PartitionIndex& index, Dp* dp) {
  int64_t splits = 0;
  const bool linear = index.space() == PlanSpace::kLinear;
  index.ForEachSet([&](TableSet u, int64_t rank) {
    const uint64_t bits = u.bits();
    if ((bits & (bits - 1)) == 0) return;  // the empty set or a scan
    typename Dp::State state = dp->Begin(u);
    if (linear) {
      index.ForEachLinearSplit(u, rank, [&](int t, int64_t left_rank) {
        ++splits;
        dp->Join(&state, u.Without(t), dp->Entry(left_rank), dp->Scan(t));
      });
    } else {
      index.ForEachSplit(
          u, [&](TableSet left, int64_t left_rank, int64_t right_rank) {
            ++splits;
            dp->Join(&state, left, dp->Entry(left_rank),
                     dp->Entry(right_rank));
          });
    }
    dp->End(&state, rank);
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
  const DpNode join = dp.Node(dp.Entry(rank), idx);
  const PlanId lid = BuildPlan(index, dp, join.left, join.left_idx, arena);
  const PlanId rid =
      BuildPlan(index, dp, s.Minus(join.left), join.right_idx, arena);
  return arena->MakeJoin(join.alg, lid, rid, join.card, join.cost);
}

inline constexpr double kInfiniteCost =
    std::numeric_limits<double>::infinity();

/// Memo entry of the single-objective DP: the best plan for one admissible
/// table set, O(1) space (Theorem 4) — children are recovered through
/// left_bits at reconstruction time. `op` carries the set's cardinality
/// with its join-time operand terms, prepared once when the entry is
/// stored rather than for every split that uses it as an operand. A set
/// not stored yet costs kInfiniteCost.
struct ScalarEntry {
  double cost = kInfiniteCost;
  JoinOperand op;
  uint64_t left_bits = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
};

/// The classical DP: keeps the single cheapest plan per table set.
class ScalarDp {
 public:
  /// The set under construction: its best split so far, output terms.
  struct State {
    ScalarEntry best;
    double out_card;
    double out_time;
  };

  /// Starts a memo of index.size() slots holding the admissible
  /// singletons' scans (inadmissible singletons are provably never used
  /// as operands).
  ScalarDp(const Query& query, const PartitionIndex& index,
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
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(ScalarDp);

  State Begin(TableSet u) const {
    const double card = estimator_.Cardinality(u);
    return {ScalarEntry(), card, model_.OutputTime(card)};
  }

  /// Costs every join algorithm over one split, keeping the cheapest. The
  /// strict < in kJoinAlgorithms order means a tie keeps the earlier
  /// candidate; an operand not stored yet never wins.
  void Join(State* s, TableSet left, const ScalarEntry& l,
            const ScalarEntry& r) const {
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
    MPQOPT_CHECK(s->best.cost < kInfiniteCost);  // every set has a split
    Store(rank, s->out_card, s->best);
  }

  /// Stores `entry` at `rank` with the operand terms of `card` rows.
  void Store(int64_t rank, double card, const ScalarEntry& entry) {
    ScalarEntry& slot = memo_[static_cast<size_t>(rank)];
    slot = entry;
    slot.op = model_.Operand(card);
  }

  const ScalarEntry& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const ScalarEntry& Scan(int t) const { return scan_[t]; }
  DpNode Node(const ScalarEntry& e, uint32_t /*idx*/) const {
    return {e.op.card, CostVector::Scalar(e.cost), e.alg,
            TableSet(e.left_bits)};
  }

  size_t ApproxBytes() const { return memo_.capacity() * sizeof(ScalarEntry); }

 private:
  const CostModel& model_;
  CardinalityEstimator estimator_;
  std::vector<ScalarEntry> memo_;
  ScalarEntry scan_[kMaxTables];
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
/// of plans for one admissible table set. The frontier is a finished,
/// immutable arena-allocated array — frontiers are built once in a shared
/// scratch vector and flushed here, so the memo does one bump allocation
/// per admissible set instead of one heap vector per set (the hottest
/// allocation of the multi-objective DP). A set not stored yet has no
/// plans.
struct ParetoEntry {
  JoinOperand op;
  const ParetoPlanRef* plans = nullptr;
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
        estimator_(query),
        memo_(static_cast<size_t>(index.size())) {
    for (int t = 0; t < query.num_tables(); ++t) {
      const double card = query.table(t).cardinality;
      scan_plan_[t] = {model_.ScanCost(card), 0, 0, 0, JoinAlgorithm::kScan};
      scan_[t] = {model_.Operand(card), &scan_plan_[t], 1};
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) Store(rank, card, &scan_plan_[t], 1);
    }
  }
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(ParetoDp);

  State Begin(TableSet u) {
    scratch_.clear();
    const double card = estimator_.Cardinality(u);
    return {card, model_.OutputTime(card)};
  }

  /// Offers every (left plan, right plan, algorithm) of one split to the
  /// frontier under construction.
  void Join(State* s, TableSet left, const ParetoEntry& l,
            const ParetoEntry& r) {
    // The operator-local terms depend on the split alone, not on which
    // operand plans it combines.
    double local_time[kNumJoinAlgorithms];
    double local_buffer[kNumJoinAlgorithms];
    for (int a = 0; a < kNumJoinAlgorithms; ++a) {
      local_time[a] =
          model_.LocalJoinTime(kJoinAlgorithms[a], l.op, r.op, s->out_time);
      local_buffer[a] =
          model_.LocalJoinBuffer(kJoinAlgorithms[a], l.op.card, r.op.card);
    }
    plans_costed_ += int64_t{l.num_plans} * r.num_plans * kNumJoinAlgorithms;
    const auto cost_of = [](const ParetoPlanRef& p) -> const CostVector& {
      return p.cost;
    };
    for (uint32_t li = 0; li < l.num_plans; ++li) {
      for (uint32_t ri = 0; ri < r.num_plans; ++ri) {
        for (int a = 0; a < kNumJoinAlgorithms; ++a) {
          ParetoPlanRef cand;
          cand.cost = model_.ComposeJoinCost(l.plans[li].cost,
                                             r.plans[ri].cost, local_time[a],
                                             local_buffer[a]);
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

  /// Stores a finished frontier at `rank`, copied into an immutable arena
  /// array, with the operand terms of `card` rows.
  void Store(int64_t rank, double card, const ParetoPlanRef* plans,
             size_t count) {
    static_assert(std::is_trivially_copyable_v<ParetoPlanRef>);
    ParetoPlanRef* copy = frontier_arena_.AllocateArray<ParetoPlanRef>(count);
    if (count > 0) std::memcpy(copy, plans, count * sizeof(ParetoPlanRef));
    ParetoEntry& e = memo_[static_cast<size_t>(rank)];
    e.op = model_.Operand(card);
    e.plans = copy;
    e.num_plans = static_cast<uint32_t>(count);
  }

  /// The frontier of the set under construction (since the last Begin).
  const std::vector<ParetoPlanRef>& frontier() const { return scratch_; }
  int64_t plans_costed() const { return plans_costed_; }

  const ParetoEntry& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const ParetoEntry& Scan(int t) const { return scan_[t]; }
  DpNode Node(const ParetoEntry& e, uint32_t idx) const {
    const ParetoPlanRef& p = e.plans[idx];
    return {e.op.card, p.cost, p.alg, TableSet(p.left_bits), p.left_idx,
            p.right_idx};
  }

  size_t ApproxBytes() const {
    return memo_.capacity() * sizeof(ParetoEntry) +
           frontier_arena_.ApproxBytes() +
           scratch_.capacity() * sizeof(ParetoPlanRef);
  }

 private:
  const CostModel& model_;
  double alpha_;
  CardinalityEstimator estimator_;
  std::vector<ParetoEntry> memo_;
  /// Bump storage for finished frontiers; scratch_ is the one mutable
  /// frontier under construction, reused across sets.
  Arena frontier_arena_;
  std::vector<ParetoPlanRef> scratch_;
  int64_t plans_costed_ = 0;
  ParetoPlanRef scan_plan_[kMaxTables];
  ParetoEntry scan_[kMaxTables];
};

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_PARTITION_DP_H_
