// Copyright 2026 mpqopt authors.
//
// Order-aware partition DP (the interesting_orders mode of
// RunPartitionDp). Keeps the best plan per (admissible table set, order
// class) so that sort-merge joins can exploit orders produced upstream:
// an SMJ whose input is already sorted in the join's attribute class
// skips that input's sort term, and its output is sorted in that class;
// block nested loop preserves the outer order; hash joins destroy order;
// scans come in heap (unordered) and sorted variants.
//
// The plan-space partitioning is completely orthogonal to the order
// dimension — the same constraints restrict the same table sets — which
// demonstrates the paper's claim that the decomposition carries over to
// DP variants with richer plan properties (Section 5.4). The DP runs on
// the shared walk and plan builder of partition_dp.h; only its per-set
// members (the order-aware pruning) are its own.

#ifndef MPQOPT_OPTIMIZER_IO_DP_H_
#define MPQOPT_OPTIMIZER_IO_DP_H_

#include "cost/cost_model.h"
#include "optimizer/dp.h"
#include "partition/partition_index.h"

namespace mpqopt {

/// Runs the order-aware DP over the partition `index`, after
/// RunPartitionDp's entry checks: `result` receives the cheapest plan of
/// any order and the work counters.
void RunInterestingOrderDp(const Query& query, const PartitionIndex& index,
                           const CostModel& model, DpResult* result);

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_IO_DP_H_
