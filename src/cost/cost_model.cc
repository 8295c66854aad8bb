// Copyright 2026 mpqopt authors.

#include "cost/cost_model.h"

namespace mpqopt {

const char* JoinAlgorithmName(JoinAlgorithm alg) {
  switch (alg) {
    case JoinAlgorithm::kScan:
      return "Scan";
    case JoinAlgorithm::kBlockNestedLoop:
      return "BNL";
    case JoinAlgorithm::kHashJoin:
      return "HJ";
    case JoinAlgorithm::kSortMergeJoin:
      return "SMJ";
  }
  return "?";
}

CostVector CostModel::ScanCost(double card) const {
  if (objective_ == Objective::kTime) {
    return CostVector::Scalar(card);
  }
  // One block of scan buffer.
  return CostVector::TimeBuffer(card, options_.block_size);
}

double CostModel::SortedScanTime(double card) const {
  return options_.sorted_scan_factor * card;
}

double CostModel::MergePhaseTime(double left_card, double right_card,
                                 double output_card) const {
  return left_card + right_card + options_.output_cost_factor * output_card;
}

}  // namespace mpqopt
