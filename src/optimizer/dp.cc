// Copyright 2026 mpqopt authors.

#include "optimizer/dp.h"

#include <chrono>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/arena.h"
#include "cost/cardinality.h"
#include "optimizer/io_dp.h"
#include "optimizer/pruning.h"
#include "partition/partition_index.h"

namespace mpqopt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Memo entry of the single-objective DP: the best plan for one admissible
/// table set, O(1) space (Theorem 4) — children are recovered through
/// left_bits at reconstruction time. `op` carries the set's cardinality
/// with its join-time operand terms, prepared once when the entry is
/// finished rather than for every split that uses it as an operand.
struct ScalarEntry {
  double cost = kInf;
  JoinOperand op;
  uint64_t left_bits = 0;
  JoinAlgorithm alg = JoinAlgorithm::kScan;
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
/// allocation of the multi-objective DP).
struct ParetoEntry {
  JoinOperand op;
  const ParetoPlanRef* plans = nullptr;
  uint32_t num_plans = 0;
};

class ScalarDp {
 public:
  ScalarDp(const Query& query, const PartitionIndex& index,
           const CostModel& model)
      : query_(query), index_(index), model_(model), estimator_(query) {}

  void Run(DpStats* stats) {
    const int n = query_.num_tables();
    memo_.assign(static_cast<size_t>(index_.size()), ScalarEntry());
    // Initialize admissible singletons with scan plans (inadmissible
    // singletons are provably never used as operands).
    for (int t = 0; t < n; ++t) {
      scan_[t] = model_.Operand(query_.table(t).cardinality);
      scan_cost_[t] = model_.ScanCost(scan_[t].card).time();
      const int64_t r = index_.Rank(TableSet::Single(t));
      if (r >= 0) {
        memo_[static_cast<size_t>(r)] = {scan_cost_[t], scan_[t], 0,
                                         JoinAlgorithm::kScan};
      }
    }
    int64_t splits = 0;
    const bool linear = index_.space() == PlanSpace::kLinear;
    for (int k = 2; k <= n; ++k) {
      index_.ForEachSetOfCard(k, [&](TableSet u, int64_t rank) {
        const double out_card = estimator_.Cardinality(u);
        const double out_time = model_.OutputTime(out_card);
        ScalarEntry best;
        if (linear) {
          index_.ForEachLinearSplit(u, rank, [&](int t, int64_t lrank) {
            const ScalarEntry& le = memo_[static_cast<size_t>(lrank)];
            MPQOPT_DCHECK(le.cost < kInf);
            ++splits;
            TryJoins(le.cost + scan_cost_[t], le.op, scan_[t], out_time,
                     u.Without(t), &best);
          });
        } else {
          index_.ForEachSplit(u, [&](TableSet left, int64_t lrank,
                                     int64_t rrank) {
            const ScalarEntry& le = memo_[static_cast<size_t>(lrank)];
            const ScalarEntry& re = memo_[static_cast<size_t>(rrank)];
            MPQOPT_DCHECK(le.cost < kInf && re.cost < kInf);
            ++splits;
            TryJoins(le.cost + re.cost, le.op, re.op, out_time, left, &best);
          });
        }
        MPQOPT_CHECK(best.cost < kInf);  // every admissible set has a split
        best.op = model_.Operand(out_card);
        memo_[static_cast<size_t>(rank)] = best;
      });
    }
    // Every split costs each join algorithm once.
    stats->splits_tried += splits;
    stats->plans_costed += splits * kNumJoinAlgorithms;
  }

  /// Materializes the best plan for `s` into `arena`.
  PlanId Build(TableSet s, PlanArena* arena) const {
    if (s.Count() == 1) {
      const int t = s.Lowest();
      return arena->MakeScan(t, scan_[t].card, model_.ScanCost(scan_[t].card));
    }
    const int64_t rank = index_.Rank(s);
    MPQOPT_CHECK_GE(rank, 0);
    const ScalarEntry& e = memo_[static_cast<size_t>(rank)];
    const TableSet left(e.left_bits);
    const TableSet right = s.Minus(left);
    const PlanId lid = Build(left, arena);
    const PlanId rid = Build(right, arena);
    return arena->MakeJoin(e.alg, lid, rid, e.op.card,
                           CostVector::Scalar(e.cost));
  }

 private:
  /// Costs every join algorithm over one split whose operand plans cost
  /// `base` together, keeping the cheapest in `best`. The strict < in
  /// kJoinAlgorithms order means a tie keeps the earlier candidate.
  void TryJoins(double base, const JoinOperand& left,
                const JoinOperand& right, double out_time, TableSet left_set,
                ScalarEntry* best) const {
    for (JoinAlgorithm alg : kJoinAlgorithms) {
      const double cost =
          base + model_.LocalJoinTime(alg, left, right, out_time);
      if (cost < best->cost) {
        best->cost = cost;
        best->left_bits = left_set.bits();
        best->alg = alg;
      }
    }
  }

  const Query& query_;
  const PartitionIndex& index_;
  const CostModel& model_;
  CardinalityEstimator estimator_;
  std::vector<ScalarEntry> memo_;
  JoinOperand scan_[kMaxTables] = {};
  double scan_cost_[kMaxTables] = {};
};

class ParetoDp {
 public:
  ParetoDp(const Query& query, const PartitionIndex& index,
           const CostModel& model, double alpha)
      : query_(query),
        index_(index),
        model_(model),
        alpha_(alpha),
        estimator_(query) {}

  void Run(DpStats* stats) {
    const int n = query_.num_tables();
    memo_.assign(static_cast<size_t>(index_.size()), ParetoEntry());
    for (int t = 0; t < n; ++t) {
      scan_[t] = model_.Operand(query_.table(t).cardinality);
      scan_cost_[t] = model_.ScanCost(scan_[t].card);
      const int64_t r = index_.Rank(TableSet::Single(t));
      if (r >= 0) {
        ParetoEntry& e = memo_[static_cast<size_t>(r)];
        e.op = scan_[t];
        scratch_.assign(1, {scan_cost_[t], 0, 0, 0, JoinAlgorithm::kScan});
        FlushScratch(&e);
      }
    }
    const auto cost_of = [](const ParetoPlanRef& p) -> const CostVector& {
      return p.cost;
    };
    int64_t splits = 0;
    int64_t plans_costed = 0;
    const bool linear = index_.space() == PlanSpace::kLinear;
    for (int k = 2; k <= n; ++k) {
      index_.ForEachSetOfCard(k, [&](TableSet u, int64_t rank) {
        const double out_card = estimator_.Cardinality(u);
        const double out_time = model_.OutputTime(out_card);
        scratch_.clear();
        const auto try_split = [&](TableSet left, const ParetoEntry& le,
                                   const ParetoEntry& re) {
          ++splits;
          // The operator-local terms depend on the split alone, not on
          // which operand plans it combines.
          double local_time[kNumJoinAlgorithms];
          double local_buffer[kNumJoinAlgorithms];
          for (int a = 0; a < kNumJoinAlgorithms; ++a) {
            local_time[a] =
                model_.LocalJoinTime(kJoinAlgorithms[a], le.op, re.op,
                                     out_time);
            local_buffer[a] = model_.LocalJoinBuffer(
                kJoinAlgorithms[a], le.op.card, re.op.card);
          }
          plans_costed += int64_t{le.num_plans} * re.num_plans *
                          kNumJoinAlgorithms;
          for (uint32_t li = 0; li < le.num_plans; ++li) {
            for (uint32_t ri = 0; ri < re.num_plans; ++ri) {
              for (int a = 0; a < kNumJoinAlgorithms; ++a) {
                ParetoPlanRef cand;
                cand.cost = model_.ComposeJoinCost(
                    le.plans[li].cost, re.plans[ri].cost, local_time[a],
                    local_buffer[a]);
                cand.left_bits = left.bits();
                cand.left_idx = li;
                cand.right_idx = ri;
                cand.alg = kJoinAlgorithms[a];
                ParetoInsert(&scratch_, cand, cost_of, alpha_);
              }
            }
          }
        };
        if (linear) {
          index_.ForEachLinearSplit(u, rank, [&](int t, int64_t lrank) {
            const ParetoPlanRef scan_plan = {scan_cost_[t], 0, 0, 0,
                                             JoinAlgorithm::kScan};
            ParetoEntry scan;
            scan.op = scan_[t];
            scan.plans = &scan_plan;
            scan.num_plans = 1;
            try_split(u.Without(t), memo_[static_cast<size_t>(lrank)], scan);
          });
        } else {
          index_.ForEachSplit(
              u, [&](TableSet left, int64_t lrank, int64_t rrank) {
                try_split(left, memo_[static_cast<size_t>(lrank)],
                          memo_[static_cast<size_t>(rrank)]);
              });
        }
        MPQOPT_CHECK(!scratch_.empty());
        ParetoEntry entry;
        entry.op = model_.Operand(out_card);
        FlushScratch(&entry);
        memo_[static_cast<size_t>(rank)] = entry;
      });
    }
    stats->splits_tried += splits;
    stats->plans_costed += plans_costed;
  }

  /// Number of Pareto plans stored for table set `s`.
  size_t FrontierSize(TableSet s) const {
    const int64_t rank = index_.Rank(s);
    MPQOPT_CHECK_GE(rank, 0);
    return memo_[static_cast<size_t>(rank)].num_plans;
  }

  /// Materializes plan `idx` of the frontier of `s` into `arena`.
  PlanId Build(TableSet s, uint32_t idx, PlanArena* arena) const {
    if (s.Count() == 1) {
      const int t = s.Lowest();
      return arena->MakeScan(t, scan_[t].card, scan_cost_[t]);
    }
    const int64_t rank = index_.Rank(s);
    MPQOPT_CHECK_GE(rank, 0);
    const ParetoEntry& e = memo_[static_cast<size_t>(rank)];
    const ParetoPlanRef& p = e.plans[idx];
    const TableSet left(p.left_bits);
    const TableSet right = s.Minus(left);
    const PlanId lid = Build(left, p.left_idx, arena);
    const PlanId rid = Build(right, p.right_idx, arena);
    return arena->MakeJoin(p.alg, lid, rid, e.op.card, p.cost);
  }

 private:
  /// Moves the scratch frontier into an immutable arena array in `entry`.
  void FlushScratch(ParetoEntry* entry) {
    static_assert(std::is_trivially_copyable_v<ParetoPlanRef>);
    ParetoPlanRef* plans =
        frontier_arena_.AllocateArray<ParetoPlanRef>(scratch_.size());
    if (!scratch_.empty()) {
      std::memcpy(plans, scratch_.data(),
                  scratch_.size() * sizeof(ParetoPlanRef));
    }
    entry->plans = plans;
    entry->num_plans = static_cast<uint32_t>(scratch_.size());
  }

  const Query& query_;
  const PartitionIndex& index_;
  const CostModel& model_;
  double alpha_;
  CardinalityEstimator estimator_;
  std::vector<ParetoEntry> memo_;
  /// Bump storage for finished frontiers; scratch_ is the one mutable
  /// frontier under construction, reused across admissible sets.
  Arena frontier_arena_;
  std::vector<ParetoPlanRef> scratch_;
  JoinOperand scan_[kMaxTables] = {};
  CostVector scan_cost_[kMaxTables];
};

}  // namespace

StatusOr<DpResult> RunPartitionDp(const Query& query,
                                  const ConstraintSet& constraints,
                                  const DpConfig& config) {
  if (config.interesting_orders) {
    return RunPartitionDpInterestingOrders(query, constraints, config);
  }
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  if (constraints.space() != config.space) {
    return Status::InvalidArgument("constraint set is for the other space");
  }
  if (config.objective == Objective::kTimeAndBuffer && config.alpha < 1.0) {
    return Status::InvalidArgument("alpha must be >= 1");
  }

  const PartitionIndex index(query.num_tables(), constraints);
  if (index.size() > config.max_memo_entries) {
    return Status::OutOfRange(
        "plan space partition too large; increase the number of workers");
  }

  const CostModel model(config.objective, config.cost_options);
  DpResult result;
  result.stats.admissible_sets = index.size();

  const TableSet all = query.all_tables();
  const auto start = std::chrono::steady_clock::now();
  if (query.num_tables() == 1) {
    const double card = query.table(0).cardinality;
    result.best.push_back(result.arena.MakeScan(0, card, model.ScanCost(card)));
  } else if (config.objective == Objective::kTime) {
    ScalarDp dp(query, index, model);
    dp.Run(&result.stats);
    result.best.push_back(dp.Build(all, &result.arena));
  } else {
    ParetoDp dp(query, index, model, config.alpha);
    dp.Run(&result.stats);
    const size_t frontier = dp.FrontierSize(all);
    for (uint32_t i = 0; i < frontier; ++i) {
      result.best.push_back(dp.Build(all, i, &result.arena));
    }
  }
  const auto end = std::chrono::steady_clock::now();
  result.stats.seconds =
      std::chrono::duration<double>(end - start).count();
  return result;
}

StatusOr<DpResult> OptimizeSerial(const Query& query, const DpConfig& config) {
  return RunPartitionDp(query, ConstraintSet::None(config.space), config);
}

}  // namespace mpqopt
