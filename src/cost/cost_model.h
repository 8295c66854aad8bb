// Copyright 2026 mpqopt authors.
//
// Cost model with the standard textbook formulas the paper's evaluation
// uses ("standard cost formulas [Steinbrunn et al.] ... for standard join
// operators such as block-nested loop join, hash join, and sort-merge
// join", Section 6.1). Costs are abstract work units proportional to tuple
// accesses.
//
// Time metric (always metric 0):
//   Scan(R):           |R|
//   BNL(L, R):         |L| + ceil(|L| / B) * |R|   (B = block size in rows)
//   Hash(L, R):        c_h * (|L| + |R|)           (build + probe)
//   SortMerge(L, R):   |L| log2 |L| + |R| log2 |R| + |L| + |R|
// plus |out| for producing the join result; plan time is the sum over all
// operators.
//
// Buffer metric (metric 1 in kTimeAndBuffer mode, following the
// multi-objective query optimization literature the paper cites):
//   Scan: 1 block; BNL: B rows; Hash: |L| rows (build table);
//   SortMerge: |L| + |R| rows (sort workspace).
// Plan buffer is the maximum over operator workspaces — operator memory is
// reused down the pipeline, the peak governs admission. Both combination
// rules (sum for time, max for buffer) are monotone, so the principle of
// optimality holds for Pareto-set DP.
//
// Sort-merge dominance (CostModel::SortMergeDominated). A sort term is at
// least its operand's card (SortTime(c) = c for c <= 2, and c log2 c >= c
// above 2), so a sort-merge join's work is at least 2(|L| + |R|) while the
// hash join's is c_h (|L| + |R|). Costs are pinned bit for bit, so the
// DPs may skip the sort-merge candidate only if its computed cost can
// never undercut the computed hash-join cost; HJ precedes SMJ in
// kJoinAlgorithms, so a tie already keeps the hash join. In floating
// point, with u = 2^-53 and every operand nonnegative:
//   S  = fl(|L| + |R|)                  the hash join's sum
//   X  = fl(sort_L + sort_R) >= S       fl is monotone, sort >= card
//   Z  = fl(fl(X + |L|) + |R|)          the sort-merge work
//      >= (S + |L| + |R|)(1 - u)^2      one rounding per addition (an
//                                       addition with a subnormal result
//                                       is exact)
//      >= S (1 + 1/(1 + u))(1 - u)^2    since |L| + |R| >= S / (1 + u)
//      >= 2 (1 - 4u) S >= c_h S         while c_h <= 2 (1 - 4u)
// so Z >= fl(c_h S), the computed hash-join work (Z is a double and fl is
// monotone; an overflow makes Z +inf). Adding the same output time and
// then the same operand costs is monotone too, so the sort-merge cost is
// never below the hash-join cost. That settles the single-objective DP,
// whose pruning keeps the first strict minimum. This relies on std::log2
// returning at least 1 above 2, which any faithfully rounded log2 does.
//
// The time+buffer DP offers the hash join before the sort-merge join over
// the same operand plans. The hash join's buffer |L| is at most the
// sort-merge's fl(|L| + |R|) and its time is at most the sort-merge's, so
// whatever kept the hash join out, or the hash join itself, alpha-
// dominates the sort-merge candidate too, as long as alpha >= 1 and every
// cost is nonnegative (x <= alpha x needs x >= 0): c_h >= 0, a positive
// block size and a nonnegative output factor. Overflow cannot break this:
// a NaN time (0 * inf) is NaN in both candidates' times, and
// CostVector::AlphaDominates never rejects on a NaN component.

#ifndef MPQOPT_COST_COST_MODEL_H_
#define MPQOPT_COST_COST_MODEL_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "cost/cost_vector.h"

namespace mpqopt {

/// Physical operator implementations considered by the optimizer.
enum class JoinAlgorithm : uint8_t {
  kScan = 0,           ///< leaf table scan (not a join)
  kBlockNestedLoop = 1,
  kHashJoin = 2,
  kSortMergeJoin = 3,
};

/// Returns a short display name, e.g. "HJ".
const char* JoinAlgorithmName(JoinAlgorithm alg);

/// Number of join implementations (excluding kScan).
inline constexpr int kNumJoinAlgorithms = 3;

/// The list of join implementations, for enumeration loops.
inline constexpr JoinAlgorithm kJoinAlgorithms[kNumJoinAlgorithms] = {
    JoinAlgorithm::kBlockNestedLoop, JoinAlgorithm::kHashJoin,
    JoinAlgorithm::kSortMergeJoin};

/// Which cost metrics the optimizer tracks.
enum class Objective : uint8_t {
  kTime = 0,           ///< classical single-objective optimization
  kTimeAndBuffer = 1,  ///< multi-objective: (execution time, buffer space)
};

/// Tuning constants of the cost formulas.
struct CostModelOptions {
  double block_size = 100.0;       ///< rows per BNL block
  double hash_constant = 1.2;      ///< per-row build+probe factor
  double output_cost_factor = 1.0; ///< cost per produced output row
  /// Per-row cost factor of an order-producing (clustered-index-style)
  /// scan, relative to a plain heap scan. Interesting-orders mode only.
  double sorted_scan_factor = 1.2;
};

/// The terms of the join-time formula that depend on one operand alone.
/// A DP prepares them once per memo entry (CostModel::Operand) instead of
/// recomputing the log2 and ceil for every split it costs.
struct JoinOperand {
  double card = 0;    ///< estimated rows
  double blocks = 0;  ///< ceil(card / B): BNL passes when this is the outer
  double sort = 0;    ///< SortTime(card): card log2 card, or card if <= 2;
                      ///< 0 where no sort-merge join is costed
};

/// Stateless cost model; cheap to copy into each worker.
class CostModel {
 public:
  explicit CostModel(Objective objective,
                     CostModelOptions options = CostModelOptions())
      : objective_(objective), options_(options) {}

  Objective objective() const { return objective_; }
  int num_metrics() const {
    return objective_ == Objective::kTime ? 1 : 2;
  }

  /// Cost of scanning a base table with `card` rows.
  CostVector ScanCost(double card) const;

  /// Full plan cost of joining two subplans with the given algorithm.
  /// `left_cost`/`right_cost` are the subplan cost vectors; `left_card`,
  /// `right_card`, `output_card` are estimated row counts.
  CostVector JoinCost(JoinAlgorithm alg, const CostVector& left_cost,
                      const CostVector& right_cost, double left_card,
                      double right_card, double output_card) const {
    return ComposeJoinCost(
        left_cost, right_cost,
        LocalJoinTime(alg, left_card, right_card, output_card),
        LocalJoinBuffer(alg, left_card, right_card));
  }

  /// Plan cost of a join from its operands' plan costs and the operator's
  /// local time and workspace: times add, the buffer is the peak.
  CostVector ComposeJoinCost(const CostVector& left_cost,
                             const CostVector& right_cost, double local_time,
                             double local_buffer) const {
    const double time = left_cost.time() + right_cost.time() + local_time;
    if (objective_ == Objective::kTime) return CostVector::Scalar(time);
    double buffer = left_cost[1] > right_cost[1] ? left_cost[1] : right_cost[1];
    if (local_buffer > buffer) buffer = local_buffer;
    return CostVector::TimeBuffer(time, buffer);
  }

  /// True when a sort-merge join never costs less than the hash join over
  /// the same operands (proof in the header comment): 0 <= c_h <=
  /// 2(1 - 4u), a positive block size and a nonnegative output factor.
  /// NaN constants fail it. While it holds, the scalar and time+buffer DPs
  /// (partition_dp.h) neither cost the sort-merge candidate nor prepare
  /// its sort terms; the plans they keep are the same either way.
  bool SortMergeDominated() const {
    constexpr double kMaxHashConstant =
        2 * (1 - 4 * (std::numeric_limits<double>::epsilon() / 2));
    return options_.hash_constant >= 0 &&
           options_.hash_constant <= kMaxHashConstant &&
           options_.block_size > 0 && options_.output_cost_factor >= 0;
  }

  /// The per-operand terms of an operand with `card` rows. The sort term
  /// stays 0 unless `sort` is set, for a DP that never costs sort-merge.
  JoinOperand Operand(double card, bool sort = true) const {
    return {card, OuterBlocks(card), sort ? SortTime(card) : 0};
  }

  /// The output term of the join-time formula.
  double OutputTime(double output_card) const {
    return options_.output_cost_factor * output_card;
  }

  /// Operator-local join work (time metric) over prepared operand terms,
  /// plus `output_time` = OutputTime(|out|). This is the one definition
  /// of the join-time formula; every other entry point wraps it. Plans
  /// are pinned bit for bit, so each expression's evaluation order is
  /// part of the contract.
  double LocalJoinTime(JoinAlgorithm alg, const JoinOperand& left,
                       const JoinOperand& right, double output_time) const {
    double work = 0;
    switch (alg) {
      case JoinAlgorithm::kBlockNestedLoop:
        work = left.card + left.blocks * right.card;
        break;
      case JoinAlgorithm::kHashJoin:
        work = options_.hash_constant * (left.card + right.card);
        break;
      case JoinAlgorithm::kSortMergeJoin:
        work = left.sort + right.sort + left.card + right.card;
        break;
      case JoinAlgorithm::kScan:
        MPQOPT_CHECK(false);  // scans are costed via ScanCost()
    }
    return work + output_time;
  }

  /// Operator-local join work from row counts. Prepares only the operand
  /// terms `alg` reads, so a one-off caller pays for no unused log2 or
  /// ceil.
  double LocalJoinTime(JoinAlgorithm alg, double left_card, double right_card,
                       double output_card) const {
    JoinOperand left{left_card, 0, 0};
    JoinOperand right{right_card, 0, 0};
    if (alg == JoinAlgorithm::kBlockNestedLoop) {
      left.blocks = OuterBlocks(left_card);
    } else if (alg == JoinAlgorithm::kSortMergeJoin) {
      left.sort = SortTime(left_card);
      right.sort = SortTime(right_card);
    }
    return LocalJoinTime(alg, left, right, OutputTime(output_card));
  }

  /// Operator-local workspace (buffer metric).
  double LocalJoinBuffer(JoinAlgorithm alg, double left_card,
                         double right_card) const {
    switch (alg) {
      case JoinAlgorithm::kBlockNestedLoop:
        return options_.block_size;
      case JoinAlgorithm::kHashJoin:
        return left_card;  // build-side hash table
      case JoinAlgorithm::kSortMergeJoin:
        return left_card + right_card;  // sort workspace
      case JoinAlgorithm::kScan:
        break;
    }
    MPQOPT_CHECK(false);  // scans are costed via ScanCost()
    return 0;
  }

  /// Cost of sorting `card` rows (n log2 n): a sort-merge join's sort
  /// term per operand, and an explicit sort in interesting-orders mode.
  double SortTime(double card) const {
    return card * (card > 2 ? std::log2(card) : 1.0);
  }

  // --- Interesting-orders mode (see optimizer/orders.h) ---------------

  /// Cost of an order-producing scan of `card` rows.
  double SortedScanTime(double card) const;

  /// Merge phase of a sort-merge join on presorted inputs (no sort term).
  double MergePhaseTime(double left_card, double right_card,
                        double output_card) const;

 private:
  /// BNL outer-loop passes over an outer operand of `card` rows.
  double OuterBlocks(double card) const {
    return std::ceil(card / options_.block_size);
  }

  Objective objective_;
  CostModelOptions options_;
};

}  // namespace mpqopt

#endif  // MPQOPT_COST_COST_MODEL_H_
