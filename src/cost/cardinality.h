// Copyright 2026 mpqopt authors.
//
// Cardinality estimation under the classical independence assumption:
// |join(S)| = prod_{t in S} |t| * prod_{p inside S} sel(p), clamped to
// at least one row.
//
// Canonical fold. Every estimate multiplies in one fixed order: tables
// ascending, and at each table t its rows and then a factor for every
// predicate whose HIGHER endpoint is t, in predicate order. The factor
// is read from {1.0, sel}, indexed by whether the predicate's lower
// endpoint is in S, so there is no branch on which tables S holds, and
// since x * 1.0 == x exactly in IEEE 754 the product has the bits of the
// one that multiplies only the predicates inside S. The predicates are
// stored once, in one flat array with per-table offsets.
//
// Prefix identity. A predicate's lower endpoint is below its higher one,
// so the running product after table t reads only S's tables up to t.
// Hence, for any table f, the product of S equals the product of S's
// tables below f, continued over S's tables from f up (Extend):
//
//     Product(S) = Extend(Product(S ∩ {0 .. f-1}), S, f)
//
// and this holds bit for bit, not just in exact arithmetic: both sides
// run the same multiplications on the same doubles in the same order,
// the left one merely stores its partial product to memory after table
// f - 1, and storing a double does not round it. The DP walk
// (partition_dp.h) uses this with f the first table of the set's top
// group: the prefix is an admissible set of a smaller rank, whose
// product the walk already holds, and the fold over the group costs the
// multiplies of at most 2 (linear) or 3 (bushy) tables. The clamp to one
// row applies after the fold, so the walk keeps unclamped products.

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

  /// Estimated row count of joining exactly the tables in `s`: its
  /// product, clamped to one row. Requires s to be non-empty.
  double Cardinality(TableSet s) const {
    MPQOPT_DCHECK(!s.IsEmpty());
    return Clamp(Product(s));
  }

  /// The unclamped product of `s`: the canonical fold over all its
  /// tables (1.0 for the empty set).
  double Product(TableSet s) const { return Extend(1.0, s, 0); }

  /// Continues the canonical fold of `s` from `prefix_product`, the
  /// product of s's tables below table `first`, over s's tables from
  /// `first` up. Inline: the DP walk calls it once per set.
  double Extend(double prefix_product, TableSet s, int first) const {
    const uint64_t bits = s.bits();
    double product = prefix_product;
    for (int t : TableSet(bits & (~uint64_t{0} << first))) {
      product *= table_cards_[t];
      for (uint32_t i = edge_begin_[t]; i < edge_begin_[t + 1]; ++i) {
        // An indexed load, not a ternary: GCC compiles `in ? sel : 1.0`
        // to the very branch this layout exists to avoid.
        const Edge& e = edges_[i];
        product *= e.factor[(bits >> e.lower_table) & 1];
      }
    }
    return product;
  }

  /// A product clamped to one row: what the DPs store as a set's rows.
  static double Clamp(double product) {
    return product < 1.0 ? 1.0 : product;
  }

  int num_tables() const { return static_cast<int>(table_cards_.size()); }

 private:
  /// A predicate, stored at its higher endpoint.
  struct Edge {
    /// {1.0, selectivity}, indexed by whether lower_table is in the set.
    double factor[2];
    int lower_table;
  };

  std::vector<double> table_cards_;
  // The predicates whose higher endpoint is table t are
  // edges_[edge_begin_[t] .. edge_begin_[t + 1]), in predicate order.
  std::vector<uint32_t> edge_begin_;
  std::vector<Edge> edges_;
};

}  // namespace mpqopt

#endif  // MPQOPT_COST_CARDINALITY_H_
