// Copyright 2026 mpqopt authors.
//
// Cardinality estimation under the classical independence assumption:
// |join(S)| = prod_{t in S} |t| * prod_{p inside S} sel(p).
//
// The DP calls Cardinality() once per admissible join result, so it runs
// on every set of every partition. Each predicate is stored once, at its
// lower endpoint, in predicate order: one flat array with per-table
// offsets. Estimating a set costs O(|S| + #predicates whose lower
// endpoint is in S) multiplications and no branch on which tables are in
// S: a stored predicate multiplies by a factor read from {1.0, sel},
// indexed by the membership bit of its higher endpoint. In IEEE 754,
// x * 1.0 == x exactly, so the product has the bits of the one that
// multiplies only the predicates inside S.

#ifndef MPQOPT_COST_CARDINALITY_H_
#define MPQOPT_COST_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "catalog/query.h"
#include "common/table_set.h"

namespace mpqopt {

/// Estimates intermediate-result cardinalities for one query.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const Query& query);

  /// Estimated row count of joining exactly the tables in `s`.
  /// Requires s to be non-empty. Inline: the DP calls it once per set.
  double Cardinality(TableSet s) const {
    MPQOPT_DCHECK(!s.IsEmpty());
    const uint64_t bits = s.bits();
    double card = 1.0;
    for (int t : s) {
      card *= table_cards_[t];
      for (uint32_t i = edge_begin_[t]; i < edge_begin_[t + 1]; ++i) {
        // An indexed load, not a ternary: GCC compiles `in ? sel : 1.0`
        // to the very branch this layout exists to avoid.
        const Edge& e = edges_[i];
        card *= e.factor[(bits >> e.higher_table) & 1];
      }
    }
    return card < 1.0 ? 1.0 : card;
  }

  int num_tables() const { return static_cast<int>(table_cards_.size()); }

 private:
  /// A predicate, stored at its lower endpoint.
  struct Edge {
    /// {1.0, selectivity}, indexed by whether higher_table is in the set.
    double factor[2];
    int higher_table;
  };

  std::vector<double> table_cards_;
  // The predicates whose lower endpoint is table t are
  // edges_[edge_begin_[t] .. edge_begin_[t + 1]), in predicate order.
  std::vector<uint32_t> edge_begin_;
  std::vector<Edge> edges_;
};

}  // namespace mpqopt

#endif  // MPQOPT_COST_CARDINALITY_H_
