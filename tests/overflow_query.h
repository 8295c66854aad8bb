// Copyright 2026 mpqopt authors.
//
// A valid query whose plan costs overflow: the optimizers must return a
// plan that costs +inf rather than abort (the single-objective DP keeps a
// set's first split when no candidate costs less than +inf).

#ifndef MPQOPT_TESTS_OVERFLOW_QUERY_H_
#define MPQOPT_TESTS_OVERFLOW_QUERY_H_

#include <utility>
#include <vector>

#include "catalog/query.h"

namespace mpqopt {

/// A 4-table chain of 1e100-row tables joined with selectivity 1. Every
/// table and every 3-table join has a finite cardinality, but the full
/// join's is 1e400, which overflows to +inf, and so does every plan's
/// cost.
inline Query OverflowingChainQuery() {
  constexpr int kTables = 4;
  std::vector<TableInfo> tables(kTables);
  for (TableInfo& t : tables) {
    t.cardinality = 1e100;
    t.attribute_domains = {10.0};
  }
  std::vector<JoinPredicate> preds;
  for (int i = 0; i + 1 < kTables; ++i) preds.push_back({i, 0, i + 1, 0, 1.0});
  return Query(std::move(tables), std::move(preds));
}

}  // namespace mpqopt

#endif  // MPQOPT_TESTS_OVERFLOW_QUERY_H_
