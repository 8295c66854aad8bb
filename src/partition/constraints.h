// Copyright 2026 mpqopt authors.
//
// Plan-space partitioning constraints (paper Section 4.2, Algorithm 3).
//
// The plan space for a query is divided into m = 2^l partitions by placing
// l independent precedence constraints on disjoint table groups:
//
//  * Linear (left-deep) spaces constrain consecutive table PAIRS:
//    constraint i concerns tables (2i, 2i+1) and has two complementary
//    directions, Q_{2i} "joined before" Q_{2i+1} or vice versa. A
//    constraint x ≺ y excludes every intermediate join result that
//    contains y but not x.
//
//  * Bushy spaces constrain consecutive table TRIPLES: constraint i
//    concerns tables (3i, 3i+1, 3i+2) and the two directions are
//    Q_{3i} ⪯ Q_{3i+1} | Q_{3i+2} and Q_{3i+1} ⪯ Q_{3i} | Q_{3i+2}.
//    A constraint x ⪯ y|z excludes every join result containing y and z
//    but not x.
//
// Bit i of the partition id selects the direction of constraint i; the 2^l
// partitions together cover the whole plan space, and all partitions have
// exactly the same number of admissible join results (skew-freeness).

#ifndef MPQOPT_PARTITION_CONSTRAINTS_H_
#define MPQOPT_PARTITION_CONSTRAINTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/status.h"
#include "common/table_set.h"

namespace mpqopt {

/// Which plan space the optimizer searches.
enum class PlanSpace : uint8_t {
  kLinear = 0,  ///< left-deep plans only
  kBushy = 1,   ///< all binary plan trees
};

const char* PlanSpaceName(PlanSpace space);

/// Join-order precedence constraint for linear spaces: `before` must be
/// joined before `after`; join results containing `after` but not `before`
/// are inadmissible.
struct LinearConstraint {
  int before;
  int after;

  bool operator==(const LinearConstraint&) const = default;
};

/// Precedence constraint for bushy spaces: x ⪯ y | z. When following table
/// z from its leaf to the plan root, x must appear no later than y; join
/// results containing y and z but not x are inadmissible.
struct BushyConstraint {
  int x;
  int y;
  int z;

  bool operator==(const BushyConstraint&) const = default;
};

/// Width of the table groups constraints are defined on: 2 for linear
/// (pairs), 3 for bushy (triples).
constexpr int GroupWidth(PlanSpace space) {
  return space == PlanSpace::kLinear ? 2 : 3;
}

/// Maximum number of constraints usable for an n-table query: floor(n/2)
/// disjoint pairs or floor(n/3) disjoint triples.
constexpr int MaxConstraints(int num_tables, PlanSpace space) {
  return num_tables / GroupWidth(space);
}

/// Maximum degree of parallelism MPQ can exploit: 2^{floor(n/2)} for
/// linear, 2^{floor(n/3)} for bushy plan spaces (paper Section 5).
uint64_t MaxWorkers(int num_tables, PlanSpace space);

/// Rounds `workers` down to the largest power of two that the algorithm
/// can exploit for this query (at least 1).
uint64_t UsableWorkers(int num_tables, PlanSpace space, uint64_t workers);

/// Validates a requested degree of parallelism: `workers` must be a power
/// of two (in particular nonzero) not exceeding MaxWorkers(num_tables,
/// space). Returns an InvalidArgument status naming the usable value
/// otherwise. Shared by the optimizers' Optimize() entry points and the
/// CLI flag parser, so an invalid value never reaches the partition-id
/// decode.
Status ValidateNumWorkers(uint64_t workers, int num_tables, PlanSpace space);

/// A fully decoded set of constraints defining one plan-space partition.
class ConstraintSet {
 public:
  /// An empty constraint set — the whole plan space (m = 1).
  static ConstraintSet None(PlanSpace space) { return ConstraintSet(space); }

  /// Decodes `partition_id` in [0, num_partitions) into the constraint set
  /// for that partition (paper Algorithm 3, PartConstraints).
  /// `num_partitions` must be a power of two not exceeding
  /// MaxWorkers(num_tables, space).
  static StatusOr<ConstraintSet> FromPartitionId(int num_tables,
                                                 PlanSpace space,
                                                 uint64_t partition_id,
                                                 uint64_t num_partitions);

  PlanSpace space() const { return space_; }
  int num_constraints() const {
    return space_ == PlanSpace::kLinear
               ? static_cast<int>(linear_.size())
               : static_cast<int>(bushy_.size());
  }
  const std::vector<LinearConstraint>& linear() const { return linear_; }
  const std::vector<BushyConstraint>& bushy() const { return bushy_; }

  /// True if join result `s` complies with every constraint (paper:
  /// admissible join results). Singletons and the empty set are always
  /// admissible here; the DP treats scan plans separately.
  bool Admits(TableSet s) const;

  /// Renders e.g. "Q0 < Q1, Q3 < Q2" for diagnostics.
  std::string ToString() const;

  /// Same space and the same constraints in the same order.
  bool operator==(const ConstraintSet&) const = default;

 private:
  explicit ConstraintSet(PlanSpace space) : space_(space) {}

  PlanSpace space_;
  std::vector<LinearConstraint> linear_;
  std::vector<BushyConstraint> bushy_;
};

}  // namespace mpqopt

#endif  // MPQOPT_PARTITION_CONSTRAINTS_H_
