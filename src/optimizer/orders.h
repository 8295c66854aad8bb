// Copyright 2026 mpqopt authors.
//
// Interesting-order support (the extension sketched in paper Section 5.4;
// the concept goes back to Selinger et al. [17]).
//
// After an equality join on T_a.x = T_b.y, a result sorted on T_a.x is
// also sorted on T_b.y — orders are interesting per EQUIVALENCE CLASS of
// join attributes, not per attribute. OrderClasses computes those classes
// with a union-find over the query's equality predicates and assigns each
// class a dense id. The order-aware DP (io_dp.cc, RunPartitionDp's
// interesting_orders mode) then keeps one best plan per (table set, order
// class) instead of one per table set, lets sort-merge joins consume and
// produce orders, and charges explicit sorts only when an input lacks the
// required order.

#ifndef MPQOPT_OPTIMIZER_ORDERS_H_
#define MPQOPT_OPTIMIZER_ORDERS_H_

#include <cstdint>
#include <vector>

#include "catalog/query.h"
#include "common/table_set.h"

namespace mpqopt {

/// Sentinel order id: no usable ordering.
inline constexpr int kNoOrder = -1;

/// Equivalence classes of join attributes under the query's equality
/// predicates, each identified by a dense id in [0, num_classes()).
class OrderClasses {
 public:
  explicit OrderClasses(const Query& query);

  /// Number of distinct order classes (attributes not referenced by any
  /// predicate still get their own class — sorting on them is never
  /// useful downstream but harmless to represent).
  int num_classes() const { return num_classes_; }

  /// Class id of attribute `attr` of table `table`.
  int ClassOf(int table, int attr) const;

  /// Class id shared by both sides of predicate `p` (they are merged by
  /// construction).
  int ClassOfPredicate(const JoinPredicate& p) const;

  /// All distinct classes of predicates connecting `left` and `right` —
  /// the candidate sort-merge keys for that cut. Deduplicated; empty for
  /// a pure cross product.
  std::vector<int> MergeClassesForCut(TableSet left, TableSet right) const;

  /// True if some attribute of `table` belongs to class `cls` (i.e. a
  /// scan of that table can be produced sorted in that class).
  bool TableHasClass(int table, int cls) const;

 private:
  struct Edge {
    int other_table;
    int cls;
  };

  int IndexOf(int table, int attr) const {
    return table_attr_offset_[table] + attr;
  }

  std::vector<int> table_attr_offset_;
  std::vector<int> class_of_index_;
  std::vector<std::vector<Edge>> adjacency_;  // per table: crossing classes
  int num_classes_ = 0;
};

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_ORDERS_H_
