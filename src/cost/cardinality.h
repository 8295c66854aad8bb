// Copyright 2026 mpqopt authors.
//
// Cardinality estimation under the classical independence assumption:
// |join(S)| = prod_{t in S} |t| * prod_{p inside S} sel(p).
//
// The estimator precomputes a flat per-table adjacency of predicates so
// that estimating one table set costs O(|S| + #predicates inside S); the
// DP calls it once per admissible join result.

#ifndef MPQOPT_COST_CARDINALITY_H_
#define MPQOPT_COST_CARDINALITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/query.h"
#include "common/table_set.h"

namespace mpqopt {

/// Estimates intermediate-result cardinalities for one query.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const Query& query);

  /// Estimated row count of joining exactly the tables in `s`.
  /// Requires s to be non-empty.
  double Cardinality(TableSet s) const;

  /// Combined selectivity of all predicates connecting `left` and `right`
  /// (1.0 if none connect them — i.e. a Cartesian product).
  double ConnectingSelectivity(TableSet left, TableSet right) const;

  /// True if at least one predicate connects `left` and `right`. With
  /// cross products allowed this does not restrict enumeration; it is used
  /// by examples/diagnostics.
  bool Connected(TableSet left, TableSet right) const;

  int num_tables() const { return static_cast<int>(table_cards_.size()); }

 private:
  struct Edge {
    int other_table;
    double selectivity;
  };

  /// Edges incident to table t, in predicate order.
  std::span<const Edge> EdgesOf(int t) const {
    return {edges_.data() + edge_begin_[t], edges_.data() + edge_begin_[t + 1]};
  }

  std::vector<double> table_cards_;
  // Table t's incident predicates are edges_[edge_begin_[t] ..
  // edge_begin_[t + 1]). To avoid double counting inside a set,
  // Cardinality() applies an edge only at its lower endpoint;
  // higher_neighbors_[t] masks the tables above t that share a predicate
  // with it, so a table with none of them in the set skips its edges.
  std::vector<uint32_t> edge_begin_;
  std::vector<Edge> edges_;
  std::vector<uint64_t> higher_neighbors_;
};

}  // namespace mpqopt

#endif  // MPQOPT_COST_CARDINALITY_H_
