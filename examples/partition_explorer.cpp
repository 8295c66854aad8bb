// Copyright 2026 mpqopt authors.
//
// Partition explorer: a walkthrough of the paper's plan-space
// partitioning scheme on the worked examples of Section 4 — how a
// partition id decodes into join-order constraints (Example 1), which
// join results remain admissible (Example 2), and how partition sizes
// shrink as workers double.

#include <cstdio>

#include "partition/constraints.h"
#include "partition/partition_index.h"

using namespace mpqopt;

int main() {
  // --- Paper Example 1: R ⋈ S ⋈ T ⋈ U over four workers. -------------
  std::printf("Example 1: 4-table query, 4 workers, linear plan space\n");
  for (uint64_t part = 0; part < 4; ++part) {
    StatusOr<ConstraintSet> c =
        ConstraintSet::FromPartitionId(4, PlanSpace::kLinear, part, 4);
    if (!c.ok()) return 1;
    const PartitionIndex idx(4, c.value());
    std::printf("  partition %llu: constraints {%s}, %lld admissible sets\n",
                static_cast<unsigned long long>(part),
                c.value().ToString().c_str(),
                static_cast<long long>(idx.size()));
  }

  // --- Paper Example 2: admissible join results under two constraints.
  std::printf(
      "\nExample 2: constraints Q0 < Q1, Q3 < Q2 admit exactly these "
      "results:\n  ");
  {
    StatusOr<ConstraintSet> c =
        ConstraintSet::FromPartitionId(4, PlanSpace::kLinear, 2, 4);
    if (!c.ok()) return 1;
    const PartitionIndex idx(4, c.value());
    idx.ForEachSet([&](TableSet s, int64_t, int64_t, int) {
      std::printf("%s ", s.ToString().c_str());
    });
    std::printf("\n  (the paper's Example 2 lists the same 9 sets, with\n"
                "  its tables Q1..Q4 renamed to our 0-based Q0..Q3)\n");
  }

  // --- Scaling of the maximal parallelism with the query size. --------
  std::printf("\nMaximal exploitable workers by query size:\n");
  std::printf("  %6s %14s %14s\n", "tables", "linear 2^(n/2)",
              "bushy 2^(n/3)");
  for (int n : {8, 12, 16, 20, 24}) {
    std::printf("  %6d %14llu %14llu\n", n,
                static_cast<unsigned long long>(MaxWorkers(n,
                                                           PlanSpace::kLinear)),
                static_cast<unsigned long long>(MaxWorkers(n,
                                                           PlanSpace::kBushy)));
  }

  // --- Per-constraint reduction of the per-worker plan space. ---------
  std::printf(
      "\nPer-worker admissible join results, 12-table query (Theorems 2 "
      "and 3):\n");
  std::printf("  %8s %16s %16s\n", "workers", "linear (3/4)^l",
              "bushy (7/8)^l");
  for (int l = 0; l <= 4; ++l) {
    StatusOr<ConstraintSet> lin = ConstraintSet::FromPartitionId(
        12, PlanSpace::kLinear, 0, uint64_t{1} << l);
    StatusOr<ConstraintSet> bush = ConstraintSet::FromPartitionId(
        12, PlanSpace::kBushy, 0, uint64_t{1} << l);
    if (!lin.ok() || !bush.ok()) return 1;
    std::printf("  %8llu %16lld %16lld\n",
                static_cast<unsigned long long>(uint64_t{1} << l),
                static_cast<long long>(PartitionIndex(12, lin.value()).size()),
                static_cast<long long>(PartitionIndex(12, bush.value()).size()));
  }
  std::printf(
      "\nEach doubling of workers halves nothing and wastes nothing: the\n"
      "whole plan space stays covered while every worker's share shrinks\n"
      "by the provably optimal factors 3/4 (linear) and 7/8 (bushy).\n");
  return 0;
}
