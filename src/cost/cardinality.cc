// Copyright 2026 mpqopt authors.

#include "cost/cardinality.h"

#include <algorithm>

namespace mpqopt {

CardinalityEstimator::CardinalityEstimator(const Query& query) {
  const int n = query.num_tables();
  table_cards_.resize(n);
  for (int i = 0; i < n; ++i) table_cards_[i] = query.table(i).cardinality;
  // Counting sort of the edge endpoints by table; each table's edges keep
  // predicate order, which fixes the order Cardinality() multiplies in.
  edge_begin_.assign(n + 1, 0);
  for (const JoinPredicate& p : query.predicates()) {
    ++edge_begin_[p.left_table + 1];
    ++edge_begin_[p.right_table + 1];
  }
  for (int t = 0; t < n; ++t) edge_begin_[t + 1] += edge_begin_[t];
  edges_.resize(edge_begin_[n]);
  higher_neighbors_.assign(n, 0);
  std::vector<uint32_t> next(edge_begin_.begin(), edge_begin_.end() - 1);
  for (const JoinPredicate& p : query.predicates()) {
    edges_[next[p.left_table]++] = {p.right_table, p.selectivity};
    edges_[next[p.right_table]++] = {p.left_table, p.selectivity};
    higher_neighbors_[std::min(p.left_table, p.right_table)] |=
        TableSet::Single(std::max(p.left_table, p.right_table)).bits();
  }
}

double CardinalityEstimator::Cardinality(TableSet s) const {
  MPQOPT_DCHECK(!s.IsEmpty());
  double card = 1.0;
  for (int t : s) {
    card *= table_cards_[t];
    if ((higher_neighbors_[t] & s.bits()) == 0) continue;
    for (const Edge& e : EdgesOf(t)) {
      // Apply each intra-set predicate exactly once, at its lower endpoint.
      if (e.other_table > t && s.Contains(e.other_table)) {
        card *= e.selectivity;
      }
    }
  }
  return card < 1.0 ? 1.0 : card;
}

double CardinalityEstimator::ConnectingSelectivity(TableSet left,
                                                   TableSet right) const {
  MPQOPT_DCHECK(!left.Intersects(right));
  double sel = 1.0;
  // Iterate over the smaller side's adjacency lists.
  const TableSet probe = left.Count() <= right.Count() ? left : right;
  const TableSet other = left.Count() <= right.Count() ? right : left;
  for (int t : probe) {
    for (const Edge& e : EdgesOf(t)) {
      if (other.Contains(e.other_table)) sel *= e.selectivity;
    }
  }
  return sel;
}

bool CardinalityEstimator::Connected(TableSet left, TableSet right) const {
  const TableSet probe = left.Count() <= right.Count() ? left : right;
  const TableSet other = left.Count() <= right.Count() ? right : left;
  for (int t : probe) {
    for (const Edge& e : EdgesOf(t)) {
      if (other.Contains(e.other_table)) return true;
    }
  }
  return false;
}

}  // namespace mpqopt
