// Copyright 2026 mpqopt authors.
//
// Pruning functions. The paper's key observation (Section 4) is that the
// whole family of DP-based optimizers — classical single-objective,
// multi-objective, parametric — differ only in the pruning function, so
// MPQ parallelizes all of them at once. partition_dp.h writes the DP
// itself once; each variant supplies only its per-set Join. We provide
// the two pruning functions the evaluation uses (interesting orders and
// PQO prune in io_dp.cc and pqo.cc):
//
//  * Scalar pruning: keep the single cheapest plan per table set.
//  * Approximate Pareto pruning with factor alpha (Trummer & Koch,
//    SIGMOD 2014): a candidate is discarded iff an incumbent
//    alpha-dominates it (incumbent_i <= alpha * candidate_i in every
//    metric); on insertion, incumbents weakly dominated by the candidate
//    are evicted. alpha = 1 maintains the exact Pareto frontier; larger
//    alpha trades precision for smaller frontier sets and is the knob of
//    the paper's Table 1.

#ifndef MPQOPT_OPTIMIZER_PRUNING_H_
#define MPQOPT_OPTIMIZER_PRUNING_H_

#include <vector>

#include "cost/cost_vector.h"

namespace mpqopt {

/// Inserts `item` into the frontier `set` under approximate Pareto
/// pruning. `cost_of` maps an item to its CostVector. Returns true if the
/// item was inserted (and dominated incumbents evicted), false if an
/// incumbent alpha-dominates it.
template <typename T, typename CostFn>
bool ParetoInsert(std::vector<T>* set, const T& item, const CostFn& cost_of,
                  double alpha) {
  const CostVector& cost = cost_of(item);
  for (const T& incumbent : *set) {
    if (cost_of(incumbent).AlphaDominates(cost, alpha)) return false;
  }
  // Evict incumbents the new plan weakly dominates (exact dominance, so
  // the frontier's alpha-coverage guarantee is preserved).
  size_t w = 0;
  for (size_t r = 0; r < set->size(); ++r) {
    if (!cost.WeaklyDominates(cost_of((*set)[r]))) {
      if (w != r) (*set)[w] = (*set)[r];
      ++w;
    }
  }
  set->resize(w);
  set->push_back(item);
  return true;
}

/// True if every vector in `reference` is alpha-covered by some vector in
/// `frontier` (used by tests to validate the formal guarantee: if a plan
/// with cost c exists, a plan with cost <= alpha * c is returned).
inline bool AlphaCovers(const std::vector<CostVector>& frontier,
                        const std::vector<CostVector>& reference,
                        double alpha) {
  for (const CostVector& ref : reference) {
    bool covered = false;
    for (const CostVector& f : frontier) {
      if (f.AlphaDominates(ref, alpha)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace mpqopt

#endif  // MPQOPT_OPTIMIZER_PRUNING_H_
