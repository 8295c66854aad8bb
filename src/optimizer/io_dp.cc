// Copyright 2026 mpqopt authors.

#include "optimizer/io_dp.h"

#include <chrono>
#include <limits>
#include <vector>

#include "cost/cardinality.h"
#include "optimizer/orders.h"
#include "partition/partition_index.h"

namespace mpqopt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One kept plan of a (table set, order) memo slot.
struct IoPlan {
  double cost = kInf;
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
  InterestingOrderDp(const Query& query, const PartitionIndex& index,
                     const CostModel& model)
      : query_(query),
        index_(index),
        model_(model),
        estimator_(query),
        orders_(query) {}

  void Run(DpStats* stats) {
    const int n = query_.num_tables();
    memo_.assign(static_cast<size_t>(index_.size()), IoEntry());
    scan_entries_.resize(n);
    for (int t = 0; t < n; ++t) {
      const double card = query_.table(t).cardinality;
      IoEntry& scans = scan_entries_[t];
      scans.card = card;
      // Heap scan: unordered.
      scans.plans.push_back(
          {model_.ScanCost(card).time(), 0, 0, 0, kNoOrder,
           JoinAlgorithm::kScan, false});
      // One order-producing scan per distinct attribute class.
      const int num_attrs =
          static_cast<int>(query_.table(t).attribute_domains.size());
      for (int a = 0; a < num_attrs; ++a) {
        IoPlan sorted;
        sorted.cost = model_.SortedScanTime(card);
        sorted.order = static_cast<int16_t>(orders_.ClassOf(t, a));
        sorted.alg = JoinAlgorithm::kScan;
        sorted.sorted_scan = true;
        OrderPrune(&scans.plans, sorted);
      }
      const int64_t rank = index_.Rank(TableSet::Single(t));
      if (rank >= 0) memo_[static_cast<size_t>(rank)] = scans;
    }

    const bool linear = index_.space() == PlanSpace::kLinear;
    for (int k = 2; k <= n; ++k) {
      index_.ForEachSetOfCard(k, [&](TableSet u, int64_t rank) {
        IoEntry entry;
        entry.card = estimator_.Cardinality(u);
        if (linear) {
          index_.ForEachLinearSplit(u, rank, [&](int t, int64_t lrank) {
            TrySplit(u.Without(t), TableSet::Single(t),
                     memo_[static_cast<size_t>(lrank)], scan_entries_[t],
                     &entry, stats);
          });
        } else {
          index_.ForEachSplit(
              u, [&](TableSet left, int64_t lrank, int64_t rrank) {
                TrySplit(left, u.Minus(left),
                         memo_[static_cast<size_t>(lrank)],
                         memo_[static_cast<size_t>(rrank)], &entry, stats);
              });
        }
        MPQOPT_CHECK(!entry.plans.empty());
        memo_[static_cast<size_t>(rank)] = std::move(entry);
      });
    }
  }

  /// Index of the cheapest plan (any order) for the full query.
  uint32_t BestIndex(TableSet s) const {
    const IoEntry& e = EntryOf(s);
    uint32_t best = 0;
    for (uint32_t i = 1; i < e.plans.size(); ++i) {
      if (e.plans[i].cost < e.plans[best].cost) best = i;
    }
    return best;
  }

  int OrderOf(TableSet s, uint32_t idx) const {
    return EntryOf(s).plans[idx].order;
  }

  PlanId Build(TableSet s, uint32_t idx, PlanArena* arena) const {
    const IoEntry& e = EntryOf(s);
    const IoPlan& p = e.plans[idx];
    if (s.Count() == 1) {
      return arena->MakeScan(s.Lowest(), e.card, CostVector::Scalar(p.cost));
    }
    const TableSet left(p.left_bits);
    const TableSet right = s.Minus(left);
    const PlanId lid = Build(left, p.left_idx, arena);
    const PlanId rid = Build(right, p.right_idx, arena);
    return arena->MakeJoin(p.alg, lid, rid, e.card,
                           CostVector::Scalar(p.cost));
  }

 private:
  const IoEntry& EntryOf(TableSet s) const {
    if (s.Count() == 1) return scan_entries_[s.Lowest()];
    const int64_t rank = index_.Rank(s);
    MPQOPT_CHECK_GE(rank, 0);
    return memo_[static_cast<size_t>(rank)];
  }

  void TrySplit(TableSet left, TableSet right, const IoEntry& le,
                const IoEntry& re, IoEntry* entry, DpStats* stats) {
    ++stats->splits_tried;
    const std::vector<int> merge_classes =
        orders_.MergeClassesForCut(left, right);
    for (uint32_t li = 0; li < le.plans.size(); ++li) {
      for (uint32_t ri = 0; ri < re.plans.size(); ++ri) {
        const double base = le.plans[li].cost + re.plans[ri].cost;
        // Block nested loop: preserves the outer (left) order.
        {
          ++stats->plans_costed;
          IoPlan cand;
          cand.cost = base + model_.LocalJoinTime(
                                 JoinAlgorithm::kBlockNestedLoop, le.card,
                                 re.card, entry->card);
          cand.left_bits = left.bits();
          cand.left_idx = li;
          cand.right_idx = ri;
          cand.order = le.plans[li].order;
          cand.alg = JoinAlgorithm::kBlockNestedLoop;
          OrderPrune(&entry->plans, cand);
        }
        // Hash join: destroys order.
        {
          ++stats->plans_costed;
          IoPlan cand;
          cand.cost = base + model_.LocalJoinTime(JoinAlgorithm::kHashJoin,
                                                  le.card, re.card,
                                                  entry->card);
          cand.left_bits = left.bits();
          cand.left_idx = li;
          cand.right_idx = ri;
          cand.order = kNoOrder;
          cand.alg = JoinAlgorithm::kHashJoin;
          OrderPrune(&entry->plans, cand);
        }
        // Sort-merge join: one variant per equality class crossing the
        // cut; inputs already sorted in that class skip their sort.
        for (int cls : merge_classes) {
          ++stats->plans_costed;
          double cost = base + model_.MergePhaseTime(le.card, re.card,
                                                     entry->card);
          if (le.plans[li].order != cls) cost += model_.SortTime(le.card);
          if (re.plans[ri].order != cls) cost += model_.SortTime(re.card);
          IoPlan cand;
          cand.cost = cost;
          cand.left_bits = left.bits();
          cand.left_idx = li;
          cand.right_idx = ri;
          cand.order = static_cast<int16_t>(cls);
          cand.alg = JoinAlgorithm::kSortMergeJoin;
          OrderPrune(&entry->plans, cand);
        }
      }
    }
  }

  const Query& query_;
  const PartitionIndex& index_;
  const CostModel& model_;
  CardinalityEstimator estimator_;
  OrderClasses orders_;
  std::vector<IoEntry> memo_;
  std::vector<IoEntry> scan_entries_;
};

}  // namespace

StatusOr<DpResult> RunPartitionDpInterestingOrders(
    const Query& query, const ConstraintSet& constraints,
    const DpConfig& config) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  if (config.objective != Objective::kTime) {
    return Status::Unimplemented(
        "interesting orders are supported for single-objective "
        "optimization only");
  }
  if (constraints.space() != config.space) {
    return Status::InvalidArgument("constraint set is for the other space");
  }
  const PartitionIndex index(query.num_tables(), constraints);
  if (index.size() > config.max_memo_entries) {
    return Status::OutOfRange(
        "plan space partition too large; increase the number of workers");
  }
  const CostModel model(config.objective, config.cost_options);

  DpResult result;
  result.stats.admissible_sets = index.size();
  const auto start = std::chrono::steady_clock::now();
  if (query.num_tables() == 1) {
    const double card = query.table(0).cardinality;
    result.best.push_back(
        result.arena.MakeScan(0, card, model.ScanCost(card)));
  } else {
    InterestingOrderDp dp(query, index, model);
    dp.Run(&result.stats);
    const TableSet all = query.all_tables();
    result.best.push_back(
        dp.Build(all, dp.BestIndex(all), &result.arena));
  }
  const auto end = std::chrono::steady_clock::now();
  result.stats.seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace mpqopt
