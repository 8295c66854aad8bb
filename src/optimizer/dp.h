// Copyright 2026 mpqopt authors.
//
// The dynamic-programming plan search executed by each worker on its plan
// space partition (paper Algorithm 2, with the split generation of
// Algorithm 5). Running it with an empty constraint set on the full index
// IS the classical serial optimizer (Selinger-style for linear spaces,
// Vance/Maier-style for bushy spaces with Cartesian products), which is
// exactly the paper's m = 1 baseline.
//
// Every mode runs the one walk and plan builder of partition_dp.h and
// differs only in the pruning function and memo entry layout. The walk
// visits a partition's admissible sets in ascending rank, which puts
// every proper subset of a set before it (each group numbers its digits
// in ascending local-pattern order, see partition_index.h), so both
// operands of a split are final when the set is joined. The partition's
// index comes from a per-thread cache behind OpenPartition. The modes:
//  * kTime: one best plan per admissible table set (48-byte memo entry:
//    cost, back-pointer, and the set's prepared join-time operand terms).
//  * kTimeAndBuffer: an alpha-approximate Pareto set per table set.
//  * interesting_orders: the best plan per (table set, order class)
//    (io_dp.h).

#ifndef MPQOPT_OPTIMIZER_DP_H_
#define MPQOPT_OPTIMIZER_DP_H_

#include <cstdint>
#include <vector>

#include "catalog/query.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "partition/constraints.h"
#include "plan/plan.h"

namespace mpqopt {

/// Configuration of one DP run.
struct DpConfig {
  PlanSpace space = PlanSpace::kLinear;
  Objective objective = Objective::kTime;
  /// Approximation factor of the Pareto pruning function; only used in
  /// kTimeAndBuffer mode. Must be >= 1.
  double alpha = 10.0;
  /// Track interesting orders: keep the best plan per (table set, order
  /// class), let sort-merge joins consume/produce orders (paper §5.4
  /// extension). Single-objective only. The plans carry their true
  /// charged costs, which the order-blind CostModel does not reproduce:
  /// validate them with PlanValidationOptions::check_costs = false.
  bool interesting_orders = false;
  /// Cost model tuning constants.
  CostModelOptions cost_options;
  /// Safety valve: refuse runs whose memo would exceed this many entries
  /// (the caller should add workers instead).
  int64_t max_memo_entries = int64_t{1} << 28;
};

/// Counters describing one DP run; the benchmark harness aggregates these
/// into the paper's figures.
struct DpStats {
  /// Admissible join results (memo slots) — the paper's
  /// "Memory (relations)" metric and the quantity of Theorems 2/3.
  int64_t admissible_sets = 0;
  /// Operand pairs generated (the quantity of Theorems 6/7).
  int64_t splits_tried = 0;
  /// Candidates the pruning function ranks: splits x join algorithms x
  /// operand plan pairs. A sort-merge join the kernels skip because the
  /// hash join dominates it (CostModel::SortMergeDominated) still counts:
  /// it is ranked, as a loser, without being costed. So the count does
  /// not depend on the cost constants.
  int64_t plans_costed = 0;
  /// Pure optimization time in seconds (excludes (de)serialization).
  double seconds = 0;
};

/// Output of one DP run: the partition-optimal plan(s) materialized in a
/// private arena. `best` has exactly one element in kTime mode and the
/// partition's Pareto frontier in kTimeAndBuffer mode.
struct DpResult {
  PlanArena arena;
  std::vector<PlanId> best;
  DpStats stats;
};

/// Finds the optimal plan(s) for `query` within the plan-space partition
/// defined by `constraints` (paper Algorithm 2). Use
/// ConstraintSet::None(space) for the full, unpartitioned plan space.
StatusOr<DpResult> RunPartitionDp(const Query& query,
                                  const ConstraintSet& constraints,
                                  const DpConfig& config);

/// Convenience wrapper: classical serial optimization over the whole plan
/// space (m = 1).
StatusOr<DpResult> OptimizeSerial(const Query& query, const DpConfig& config);

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_DP_H_
