// Copyright 2026 mpqopt authors.

#include "cost/cardinality.h"

#include <algorithm>

namespace mpqopt {

CardinalityEstimator::CardinalityEstimator(const Query& query) {
  const int n = query.num_tables();
  table_cards_.resize(n);
  for (int i = 0; i < n; ++i) table_cards_[i] = query.table(i).cardinality;
  // Counting sort of the predicates by lower endpoint; each table's
  // predicates keep predicate order, which fixes the order Cardinality()
  // multiplies in.
  edge_begin_.assign(n + 1, 0);
  for (const JoinPredicate& p : query.predicates()) {
    ++edge_begin_[std::min(p.left_table, p.right_table) + 1];
  }
  for (int t = 0; t < n; ++t) edge_begin_[t + 1] += edge_begin_[t];
  edges_.resize(edge_begin_[n]);
  std::vector<uint32_t> next(edge_begin_.begin(), edge_begin_.end() - 1);
  for (const JoinPredicate& p : query.predicates()) {
    const int lower = std::min(p.left_table, p.right_table);
    edges_[next[lower]++] = {{1.0, p.selectivity},
                             std::max(p.left_table, p.right_table)};
  }
}

double CardinalityEstimator::Cardinality(TableSet s) const {
  MPQOPT_DCHECK(!s.IsEmpty());
  const uint64_t bits = s.bits();
  double card = 1.0;
  for (int t : s) {
    card *= table_cards_[t];
    for (uint32_t i = edge_begin_[t]; i < edge_begin_[t + 1]; ++i) {
      // An indexed load, not a ternary: GCC compiles `in ? sel : 1.0` to
      // the very branch this layout exists to avoid.
      const Edge& e = edges_[i];
      card *= e.factor[(bits >> e.higher_table) & 1];
    }
  }
  return card < 1.0 ? 1.0 : card;
}

}  // namespace mpqopt
