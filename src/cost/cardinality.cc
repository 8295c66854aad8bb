// Copyright 2026 mpqopt authors.

#include "cost/cardinality.h"

#include <algorithm>

namespace mpqopt {

CardinalityEstimator::CardinalityEstimator(const Query& query) {
  const int n = query.num_tables();
  table_cards_.resize(n);
  for (int i = 0; i < n; ++i) table_cards_[i] = query.table(i).cardinality;
  // Counting sort of the predicates by higher endpoint; each table's
  // predicates keep predicate order, which fixes the canonical fold.
  edge_begin_.assign(n + 1, 0);
  for (const JoinPredicate& p : query.predicates()) {
    ++edge_begin_[std::max(p.left_table, p.right_table) + 1];
  }
  for (int t = 0; t < n; ++t) edge_begin_[t + 1] += edge_begin_[t];
  edges_.resize(edge_begin_[n]);
  std::vector<uint32_t> next(edge_begin_.begin(), edge_begin_.end() - 1);
  for (const JoinPredicate& p : query.predicates()) {
    const int higher = std::max(p.left_table, p.right_table);
    edges_[next[higher]++] = {{1.0, p.selectivity},
                              std::min(p.left_table, p.right_table)};
  }
}

}  // namespace mpqopt
