// Copyright 2026 mpqopt authors.
//
// Structural and semantic plan validation: re-derives a plan's tables,
// cardinalities and costs from the query and the cost model. The tests
// and perfbench's replay check optimizer results with it; nothing in the
// serving path calls it, so the master trusts the cost annotations its
// workers return.

#ifndef MPQOPT_PLAN_PLAN_VALIDATOR_H_
#define MPQOPT_PLAN_PLAN_VALIDATOR_H_

#include "catalog/query.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "partition/constraints.h"
#include "plan/plan.h"

namespace mpqopt {

/// Options for ValidatePlan.
struct PlanValidationOptions {
  /// Relative tolerance when re-deriving cardinalities and costs.
  double relative_tolerance = 1e-9;
  /// Recompute and compare operator costs. Disable for plans produced in
  /// interesting-orders mode, whose costs depend on order context the
  /// plain CostModel cannot reproduce.
  bool check_costs = true;
  /// When set, additionally require the plan to be left-deep.
  bool require_left_deep = false;
  /// When set, additionally require every intermediate join result of the
  /// plan to satisfy this constraint set (partition membership).
  const ConstraintSet* constraints = nullptr;
};

/// Checks that the subtree rooted at `id`:
///  * joins each table of `query` exactly once and nothing else,
///  * has disjoint operands at every join,
///  * carries cardinalities matching the estimator and cost vectors
///    matching the cost model (within relative tolerance),
///  * satisfies the requested structural restrictions.
Status ValidatePlan(const PlanArena& arena, PlanId id, const Query& query,
                    const CostModel& model,
                    const PlanValidationOptions& options = {});

}  // namespace mpqopt

#endif  // MPQOPT_PLAN_PLAN_VALIDATOR_H_
