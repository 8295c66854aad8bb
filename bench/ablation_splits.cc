// Copyright 2026 mpqopt authors.
//
// Ablation C: the bushy split-enumeration design choice of Algorithm 5.
// The paper invests extra machinery so that bushy workers GENERATE only
// admissible splits (complexity proportional to admissible splits,
// factor (21/27)^l) instead of enumerating all 2^|U| splits and FILTERING
// (complexity proportional to possible splits). This bench measures the
// enumeration cost of both strategies on identical partitions.

#include <chrono>

#include "bench/bench_common.h"
#include "partition/partition_index.h"

namespace mpqopt {
namespace {

using Clock = std::chrono::steady_clock;

/// Strategy A (paper, Algorithm 5): constrained generation.
int64_t GenerateOnly(const PartitionIndex& idx) {
  int64_t splits = 0;
  idx.ForEachSet([&](TableSet u, int64_t, int64_t, int) {
    if (u.Count() < 2) return;
    idx.ForEachSplit(u, [&](TableSet, int64_t, int64_t) { ++splits; });
  });
  return splits;
}

/// Strategy B (baseline): enumerate the full power set of each join
/// result and filter both operands through the admissibility test.
int64_t GenerateAndFilter(const PartitionIndex& idx) {
  int64_t splits = 0;
  idx.ForEachSet([&](TableSet u, int64_t, int64_t, int) {
    if (u.Count() < 2) return;
    SubsetEnumerator subsets(u);
    while (subsets.Next()) {
      const TableSet left = subsets.current();
      if (idx.Contains(left) && idx.Contains(u.Minus(left))) ++splits;
    }
  });
  return splits;
}

void Run(int n, const BenchConfig& config) {
  PrintHeader(("Ablation C — bushy split enumeration, " + std::to_string(n) +
               " tables")
                  .c_str());
  TablePrinter table({"constraints l", "admissible splits",
                      "generate-only (ms)", "generate+filter (ms)",
                      "speedup"});
  (void)config;
  for (int l = 0; l <= MaxConstraints(n, PlanSpace::kBushy); ++l) {
    StatusOr<ConstraintSet> c = ConstraintSet::FromPartitionId(
        n, PlanSpace::kBushy, 0, uint64_t{1} << l);
    MPQOPT_CHECK(c.ok());
    const PartitionIndex idx(n, c.value());

    const auto t0 = Clock::now();
    const int64_t generated = GenerateOnly(idx);
    const auto t1 = Clock::now();
    const int64_t filtered = GenerateAndFilter(idx);
    const auto t2 = Clock::now();
    MPQOPT_CHECK_EQ(generated, filtered);  // identical split sets

    const double gen_s = std::chrono::duration<double>(t1 - t0).count();
    const double fil_s = std::chrono::duration<double>(t2 - t1).count();
    table.AddRow({std::to_string(l), std::to_string(generated),
                  TablePrinter::FormatMillis(gen_s),
                  TablePrinter::FormatMillis(fil_s),
                  TablePrinter::FormatDouble(gen_s > 0 ? fil_s / gen_s : 0,
                                             2)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace mpqopt

int main() {
  using namespace mpqopt;
  const BenchConfig config = BenchConfig::FromEnv();
  Run(12, config);
  Run(15, config);
  std::printf(
      "Expected: both strategies produce identical split sets; the\n"
      "generate-only strategy's advantage grows with l because its cost\n"
      "follows the shrinking admissible count while filtering still pays\n"
      "for the full power set of every join result.\n");
  return 0;
}
