// Copyright 2026 mpqopt authors.
//
// Query plan representation (paper Section 3). Plans are binary trees:
// Scan(q) leaves and Join(left, right) inner nodes where `left` is the
// outer and `right` the inner operand. Left-deep plans are the subset in
// which every right operand is a scan.
//
// Plans live in a PlanArena, one vector of nodes: a PlanId is an index
// into it and a DP plan costs O(1) memo space (two child ids + operator +
// cost), which is what makes Theorem 4's space bound hold. Arenas are
// per-worker — MPQ workers never share plan memory.

#ifndef MPQOPT_PLAN_PLAN_H_
#define MPQOPT_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/table_set.h"
#include "cost/cost_model.h"
#include "cost/cost_vector.h"

namespace mpqopt {

/// Index of a plan node inside a PlanArena.
using PlanId = int32_t;

/// Sentinel for "no plan".
inline constexpr PlanId kInvalidPlanId = -1;

/// One operator node of a plan tree.
struct PlanNode {
  /// Tables covered by this subtree.
  TableSet tables;
  /// Children (kInvalidPlanId for scans).
  PlanId left = kInvalidPlanId;
  PlanId right = kInvalidPlanId;
  /// kScan for leaves, a join implementation otherwise.
  JoinAlgorithm algorithm = JoinAlgorithm::kScan;
  /// For scans: the scanned table index. Unused for joins.
  int32_t table = -1;
  /// Estimated output rows.
  double cardinality = 0;
  /// Cumulative plan cost of this subtree.
  CostVector cost;

  bool IsScan() const { return algorithm == JoinAlgorithm::kScan; }
};

/// The nodes of one or more plans, in one vector: a PlanId is a node's
/// index. Nodes are never freed individually (a worker drops the whole
/// store when it finishes). Copies are deep — the plan cache stores winner
/// plans by value (CachedPlan) and re-materializes them per hit.
///
/// A reference returned by node() is invalidated by a later MakeScan or
/// MakeJoin on the same store, which may grow the vector. CopyPlan reads
/// one store and appends to another, so it holds none across an append.
class PlanArena {
 public:
  /// Creates a scan leaf for `table`.
  PlanId MakeScan(int table, double cardinality, const CostVector& cost) {
    PlanNode node;
    node.tables = TableSet::Single(table);
    node.algorithm = JoinAlgorithm::kScan;
    node.table = table;
    node.cardinality = cardinality;
    node.cost = cost;
    return Append(node);
  }

  /// Creates a join of two existing nodes.
  PlanId MakeJoin(JoinAlgorithm alg, PlanId left, PlanId right,
                  double cardinality, const CostVector& cost) {
    MPQOPT_DCHECK(alg != JoinAlgorithm::kScan);
    PlanNode node;
    node.tables = this->node(left).tables.Union(this->node(right).tables);
    MPQOPT_DCHECK(!this->node(left).tables.Intersects(this->node(right).tables));
    node.left = left;
    node.right = right;
    node.algorithm = alg;
    node.cardinality = cardinality;
    node.cost = cost;
    return Append(node);
  }

  const PlanNode& node(PlanId id) const {
    MPQOPT_DCHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return nodes_[static_cast<size_t>(id)];
  }

  size_t size() const { return nodes_.size(); }

  /// Resident bytes, for memory accounting (counts the vector's slack).
  size_t MemoryBytes() const { return nodes_.capacity() * sizeof(PlanNode); }

  void Reserve(size_t n) { nodes_.reserve(n); }
  void Clear() { nodes_.clear(); }

 private:
  PlanId Append(const PlanNode& node) {
    nodes_.push_back(node);
    return static_cast<PlanId>(nodes_.size() - 1);
  }

  std::vector<PlanNode> nodes_;
};

/// True if the subtree rooted at `id` is left-deep (every right child of
/// every join is a scan).
bool IsLeftDeep(const PlanArena& arena, PlanId id);

/// For a left-deep plan, returns the join order as a table sequence
/// (outermost/first-joined table first). CHECK-fails on bushy plans.
std::vector<int> LeftDeepJoinOrder(const PlanArena& arena, PlanId id);

/// Renders e.g. "HJ(SMJ(R0, R2), R1)" using table names "R<i>".
std::string PlanToString(const PlanArena& arena, PlanId id);

/// Number of join nodes in the subtree.
int CountJoins(const PlanArena& arena, PlanId id);

/// Deep-copies the subtree rooted at `id` from `source` into `dest`
/// (used by masters re-materializing worker plans into their own arena).
PlanId CopyPlan(const PlanArena& source, PlanId id, PlanArena* dest);

}  // namespace mpqopt

#endif  // MPQOPT_PLAN_PLAN_H_
