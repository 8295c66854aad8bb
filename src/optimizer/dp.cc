// Copyright 2026 mpqopt authors.

#include "optimizer/dp.h"

#include <chrono>

#include "optimizer/io_dp.h"
#include "optimizer/partition_dp.h"

namespace mpqopt {

StatusOr<DpResult> RunPartitionDp(const Query& query,
                                  const ConstraintSet& constraints,
                                  const DpConfig& config) {
  // Negated so that a NaN alpha fails too.
  if (config.objective == Objective::kTimeAndBuffer &&
      !(config.alpha >= 1.0)) {
    return Status::InvalidArgument("alpha must be >= 1");
  }
  if (config.interesting_orders && config.objective != Objective::kTime) {
    return Status::Unimplemented(
        "interesting orders are supported for single-objective "
        "optimization only");
  }
  const PartitionIndex* opened = nullptr;
  Status s = OpenPartition(query, constraints, config.space,
                           config.max_memo_entries, &opened);
  if (!s.ok()) return s;
  const PartitionIndex& index = *opened;

  const CostModel model(config.objective, config.cost_options);
  DpResult result;
  result.stats.admissible_sets = index.size();

  const TableSet all = query.all_tables();
  const auto start = std::chrono::steady_clock::now();
  if (query.num_tables() == 1) {
    const double card = query.table(0).cardinality;
    result.best.push_back(result.arena.MakeScan(0, card, model.ScanCost(card)));
  } else if (config.interesting_orders) {
    RunInterestingOrderDp(query, index, model, &result);
  } else if (config.objective == Objective::kTime) {
    ScalarDp dp(query, index, model);
    const int64_t splits = WalkPartition(query, index, &dp);
    // Every split ranks each join algorithm once (DpStats::plans_costed).
    result.stats.splits_tried = splits;
    result.stats.plans_costed = splits * kNumJoinAlgorithms;
    result.best.push_back(BuildPlan(index, dp, all, 0, &result.arena));
  } else {
    ParetoDp dp(query, index, model, config.alpha);
    result.stats.splits_tried = WalkPartition(query, index, &dp);
    result.stats.plans_costed = dp.plans_costed();
    const uint32_t frontier = dp.Entry(index.Rank(all)).num_plans;
    for (uint32_t i = 0; i < frontier; ++i) {
      result.best.push_back(BuildPlan(index, dp, all, i, &result.arena));
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
