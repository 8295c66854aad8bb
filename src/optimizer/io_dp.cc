// Copyright 2026 mpqopt authors.

#include "optimizer/io_dp.h"

#include <vector>

#include "cost/cardinality.h"
#include "optimizer/orders.h"
#include "optimizer/partition_dp.h"

namespace mpqopt {
namespace {

/// One kept plan of a (table set, order) memo slot.
struct IoPlan {
  double cost = kInfiniteCost;
  uint64_t left_bits = 0;
  uint32_t left_idx = 0;
  uint32_t right_idx = 0;
  /// Order class of the output (kNoOrder if unordered).
  int16_t order = kNoOrder;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
  /// Leaf only: true for the order-producing scan variant.
  bool sorted_scan = false;
};

/// Memo entry: the order-pruned plan set of one admissible table set.
struct IoEntry {
  double card = 0;
  std::vector<IoPlan> plans;
};

/// Order-aware pruning: `candidate` is useless iff some incumbent is at
/// most as expensive AND provides at least the candidate's order (any
/// order subsumes "no order"). Inserting evicts incumbents that became
/// useless by the same rule.
void OrderPrune(std::vector<IoPlan>* plans, const IoPlan& candidate) {
  for (const IoPlan& p : *plans) {
    if (p.cost <= candidate.cost &&
        (candidate.order == kNoOrder || p.order == candidate.order)) {
      return;
    }
  }
  size_t w = 0;
  for (size_t r = 0; r < plans->size(); ++r) {
    const IoPlan& p = (*plans)[r];
    const bool evict = candidate.cost <= p.cost &&
                       (p.order == kNoOrder || p.order == candidate.order);
    if (!evict) {
      if (w != r) (*plans)[w] = p;
      ++w;
    }
  }
  plans->resize(w);
  plans->push_back(candidate);
}

class InterestingOrderDp {
 public:
  /// The set under construction and its order-pruned plans so far.
  struct State {
    TableSet u;
    IoEntry entry;
  };

  InterestingOrderDp(const Query& query, const PartitionIndex& index,
                     const CostModel& model)
      : model_(model),
        orders_(query),
        memo_(static_cast<size_t>(index.size())),
        scan_entries_(query.num_tables()) {
    for (int t = 0; t < query.num_tables(); ++t) {
      const double card = query.table(t).cardinality;
      IoEntry& scans = scan_entries_[t];
      scans.card = card;
      // Heap scan: unordered.
      scans.plans.push_back(
          {model_.ScanCost(card).time(), 0, 0, 0, kNoOrder,
           JoinAlgorithm::kScan, false});
      // One order-producing scan per distinct attribute class.
      const int num_attrs =
          static_cast<int>(query.table(t).attribute_domains.size());
      for (int a = 0; a < num_attrs; ++a) {
        IoPlan sorted;
        sorted.cost = model_.SortedScanTime(card);
        sorted.order = static_cast<int16_t>(orders_.ClassOf(t, a));
        sorted.alg = JoinAlgorithm::kScan;
        sorted.sorted_scan = true;
        OrderPrune(&scans.plans, sorted);
      }
      const int64_t rank = index.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = scans;
    }
  }

  State Begin(TableSet u, double product) const {
    return {u, {CardinalityEstimator::Clamp(product), {}}};
  }

  void Join(State* s, TableSet left, int64_t /*left_rank*/, const IoEntry& le,
            const IoEntry& re) {
    const double card = s->entry.card;
    const std::vector<int> merge_classes =
        orders_.MergeClassesForCut(left, s->u.Minus(left));
    for (uint32_t li = 0; li < le.plans.size(); ++li) {
      for (uint32_t ri = 0; ri < re.plans.size(); ++ri) {
        const double base = le.plans[li].cost + re.plans[ri].cost;
        const auto offer = [&](double cost, int order, JoinAlgorithm alg) {
          ++plans_costed_;
          OrderPrune(&s->entry.plans, {cost, left.bits(), li, ri,
                                       static_cast<int16_t>(order), alg});
        };
        // Block nested loop: preserves the outer (left) order.
        offer(base + model_.LocalJoinTime(JoinAlgorithm::kBlockNestedLoop,
                                          le.card, re.card, card),
              le.plans[li].order, JoinAlgorithm::kBlockNestedLoop);
        // Hash join: destroys order.
        offer(base + model_.LocalJoinTime(JoinAlgorithm::kHashJoin, le.card,
                                          re.card, card),
              kNoOrder, JoinAlgorithm::kHashJoin);
        // Sort-merge join: one variant per equality class crossing the
        // cut; inputs already sorted in that class skip their sort.
        for (int cls : merge_classes) {
          double cost = base + model_.MergePhaseTime(le.card, re.card, card);
          if (le.plans[li].order != cls) cost += model_.SortTime(le.card);
          if (re.plans[ri].order != cls) cost += model_.SortTime(re.card);
          offer(cost, cls, JoinAlgorithm::kSortMergeJoin);
        }
      }
    }
  }

  void End(State* s, int64_t rank) {
    MPQOPT_CHECK(!s->entry.plans.empty());
    memo_[static_cast<size_t>(rank)] = std::move(s->entry);
  }

  const IoEntry& Entry(int64_t rank) const {
    return memo_[static_cast<size_t>(rank)];
  }
  const IoEntry& Scan(int t) const { return scan_entries_[t]; }
  DpNode Node(const IoEntry& e, uint32_t idx) const {
    const IoPlan& p = e.plans[idx];
    return {e.card,
            CostVector::Scalar(p.cost),
            p.alg,
            TableSet(p.left_bits),
            p.left_idx,
            p.right_idx};
  }
  DpNode Node(int64_t rank, uint32_t idx) const {
    return Node(Entry(rank), idx);
  }

  int64_t plans_costed() const { return plans_costed_; }

 private:
  const CostModel& model_;
  OrderClasses orders_;
  std::vector<IoEntry> memo_;
  std::vector<IoEntry> scan_entries_;
  int64_t plans_costed_ = 0;
};

}  // namespace

void RunInterestingOrderDp(const Query& query, const PartitionIndex& index,
                           const CostModel& model, DpResult* result) {
  InterestingOrderDp dp(query, index, model);
  result->stats.splits_tried = WalkPartition(query, index, &dp);
  result->stats.plans_costed = dp.plans_costed();
  // The cheapest plan of any order; a tie keeps the earlier one.
  const TableSet all = query.all_tables();
  const std::vector<IoPlan>& plans = dp.Entry(index.Rank(all)).plans;
  uint32_t best = 0;
  for (uint32_t i = 1; i < plans.size(); ++i) {
    if (plans[i].cost < plans[best].cost) best = i;
  }
  result->best.push_back(BuildPlan(index, dp, all, best, &result->arena));
}

}  // namespace mpqopt
