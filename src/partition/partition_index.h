// Copyright 2026 mpqopt authors.
//
// PartitionIndex: the materialization-free equivalent of the paper's
// AdmJoinResults (Algorithm 4).
//
// Constraints partition the query tables into disjoint GROUPS (pairs for
// linear, triples for bushy, plus leftover single tables when n is not a
// multiple of the group width). The admissible join results are exactly
// the Cartesian product, over groups, of the admissible local subsets of
// each group. This product structure gives every admissible set a dense
// mixed-radix RANK computed in O(#groups) with no hash table:
//
//     rank(S) = sum_g digit_g((S >> offset_g) & mask_g) * stride_g
//
// where digit_g maps the (at most 8) local bit patterns of group g to
// 0..num_digits_g-1, or rejects inadmissible patterns. The DP memo is then
// a flat vector indexed by rank — this is what makes the per-worker space
// bound of Theorem 4 (O(2^n (3/4)^l) resp. O(2^n (7/8)^l)) tight in
// practice, and lookups O(1)-ish.
//
// The same structure drives:
//  * enumeration of admissible sets in ascending rank (the DP's outer
//    loop, Algorithm 2): one odometer over the group digits, group 0
//    least significant, so the rank is a counter. Every group numbers
//    its digits in ascending local-pattern order, and a subset's local
//    pattern in each group is a sub-pattern of the set's, so a proper
//    subset has a smaller digit somewhere, no larger digit anywhere and
//    thus a smaller rank: every operand of a set is visited before it,
//    which is all the DP needs of its order. The same odometer hands out
//    each set's prefix, its tables below its highest non-empty group,
//    for the incremental cardinality fold (cost/cardinality.h),
//  * the constrained split enumeration for bushy plans that only generates
//    admissible operand pairs (Algorithm 5, the 21/27 factor),
//  * the linear twin, ForEachLinearRun: the same ascending walk, one run
//    of sets per step. A run is the sets that differ only in group 0's
//    digit, the odometer's innermost one, so they share every group
//    above it, and with it every inner table above group 0 (a linear
//    constraint lies within its pair) and that table's rank delta (a
//    table's removal changes only its own group's digit). The run hands
//    out those shared splits once, and group 0's per lane from a table
//    per digit: no Rank() call, no per-table test and no popcount.

#ifndef MPQOPT_PARTITION_PARTITION_INDEX_H_
#define MPQOPT_PARTITION_PARTITION_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/table_set.h"
#include "partition/constraints.h"

namespace mpqopt {

/// Index over the admissible join results of one plan-space partition.
class PartitionIndex {
 public:
  /// Builds the index for `num_tables` query tables under `constraints`.
  /// With an empty constraint set this indexes the full power set
  /// (the m = 1 / serial case).
  PartitionIndex(int num_tables, const ConstraintSet& constraints);

  int num_tables() const { return num_tables_; }
  PlanSpace space() const { return space_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  /// Number of admissible table subsets, including the empty set and all
  /// admissible singletons. This is the memo size of the worker DP — the
  /// quantity the paper plots as "Memory (relations)".
  int64_t size() const { return size_; }

  /// Number of admissible subsets with exactly k tables.
  int64_t CountSetsOfCard(int k) const;

  /// Dense rank of an admissible set in [0, size()), or -1 when `s`
  /// violates a constraint.
  int64_t Rank(TableSet s) const {
    int64_t rank = 0;
    for (const Group& g : groups_) {
      const uint8_t pattern = LocalPattern(s, g);
      const int8_t digit = g.digit_of_pattern[pattern];
      if (digit < 0) return -1;
      rank += static_cast<int64_t>(digit) * g.stride;
    }
    return rank;
  }

  bool Contains(TableSet s) const { return Rank(s) >= 0; }

  /// The admissible set whose rank is `rank`, in [0, size()): the inverse
  /// of Rank.
  TableSet SetOfRank(int64_t rank) const;

  /// Invokes fn(TableSet set, int64_t rank, int64_t prefix_rank,
  /// int top_offset) for every admissible set (all cardinalities,
  /// including the empty set) in ascending rank, so rank runs 0, 1, ...,
  /// size() - 1 and every proper subset of a set comes before it (see the
  /// file comment). Callers that want one cardinality filter on
  /// u.Count().
  ///
  /// Each set comes with its prefix: the set's top group is the highest
  /// group holding one of its tables, top_offset is that group's first
  /// table, and the prefix (the set's tables below top_offset) has rank
  /// prefix_rank. Every group's digit 0 is its empty pattern, so the
  /// prefix is admissible, and its rank is the set's minus the top
  /// group's digit times its stride: below the set's, so it came before.
  /// The empty set is its own prefix (rank 0, top_offset 0).
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    uint8_t digit[kMaxTables] = {};  // per group; all 0 is the empty set
    uint64_t bits = 0;
    // The top group is the highest group the odometer has moved: a
    // group wraps to 0 only when a higher one moves.
    size_t top = 0;
    int64_t prefix_rank = 0;
    for (int64_t rank = 0;;) {
      fn(TableSet(bits), rank, prefix_rank, groups_[top].offset);
      if (++rank == size_) return;
      // Add one to the odometer. Digit 0 of every group is its empty
      // pattern, so a wrapped group clears its bits.
      size_t gi = 0;
      for (;; ++gi) {
        const Group& g = groups_[gi];
        bits ^= static_cast<uint64_t>(g.pattern_of_digit[digit[gi]])
                << g.offset;
        if (++digit[gi] < g.num_digits) {
          bits |= static_cast<uint64_t>(g.pattern_of_digit[digit[gi]])
                  << g.offset;
          break;
        }
        digit[gi] = 0;
      }
      // Below the top group the digits count on as one counter; a move
      // at or above it leaves them all 0.
      if (gi < top) {
        ++prefix_rank;
      } else {
        top = gi;
        prefix_rank = 0;
      }
    }
  }

  /// Bushy DP: invokes fn(TableSet left, int64_t left_rank,
  /// int64_t right_rank) for every admissible ordered split of `u` into
  /// (left, u \ left) — both operands admissible, excluding the trivial
  /// splits left = {} and left = u. Only admissible splits are generated,
  /// never filtered (Algorithm 5, bushy variant); ranks are accumulated
  /// digit-by-digit so no Rank() call is needed in the DP's hot loop.
  template <typename Fn>
  void ForEachSplit(TableSet u, Fn&& fn) const {
    SplitRec(0, u, TableSet::Empty(), 0, 0, fn);
  }

  /// A linear group's inner tables for one of its digits, ascending: the
  /// tables t of the digit's pattern whose removal leaves an admissible
  /// pattern, which are those with no constraint (t ≺ v) for a v in the
  /// pattern (Algorithm 5, linear variant; Theorem 2's argument). A set
  /// with this digit loses delta[i] of its rank without table[i], since
  /// the removal changes only this group's digit.
  struct InnerTables {
    int count = 0;
    int table[2] = {};
    int64_t delta[2] = {};
  };

  /// One step of ForEachLinearRun: the `size` admissible sets at ranks
  /// rank .. rank + size - 1, which differ only in group 0's digit. Lane
  /// k holds group 0's digit k; lane 0 holds none of group 0's tables.
  struct LinearRun {
    static constexpr int kMaxSize = 4;  ///< the digits of a pair

    int64_t rank = 0;
    int size = 0;
    TableSet set[kMaxSize];
    /// Each lane's prefix for the incremental cardinality fold, as
    /// ForEachSet hands it: the rank of the lane's tables below its top
    /// group, whose first table is top_offset (the same in every lane).
    int64_t prefix_rank[kMaxSize] = {};
    int top_offset = 0;
    /// lower[k]: lane k's inner tables in group 0.
    const InnerTables* lower = nullptr;
    /// The inner tables above group 0, ascending, which every lane
    /// shares: lane k's left operand without upper_table[i] has rank
    /// rank + k - upper_delta[i].
    int num_upper = 0;
    int upper_table[kMaxTables + 1] = {};  // one spare slot to copy into
    int64_t upper_delta[kMaxTables + 1] = {};

    /// Lane k's linear splits: its inner tables, group 0's and the upper
    /// ones.
    int Splits(int k) const { return lower[k].count + num_upper; }
  };

  /// Linear DP: invokes fn(const LinearRun& run) for every run of
  /// admissible sets, in ascending rank, so the lanes of all runs visit
  /// every admissible set once in ForEachSet's order, with its prefix.
  /// Lane k's inner tables in ascending order are lower[k]'s, then the
  /// upper ones: group 0 holds the lowest tables.
  template <typename Fn>
  void ForEachLinearRun(Fn&& fn) const {
    MPQOPT_DCHECK(space_ == PlanSpace::kLinear);
    const Group& g0 = groups_[0];
    LinearRun run;
    run.size = g0.num_digits;
    run.lower = g0.inner;
    uint8_t digit[kMaxTables] = {};  // per group; group 0's stays 0
    uint64_t upper = 0;              // the tables above group 0
    // ForEachSet's top group and lane 0's prefix rank, over groups 1 up.
    size_t top = 0;
    int64_t prefix_rank = 0;
    for (int64_t rank = 0;; rank += run.size) {
      run.rank = rank;
      run.top_offset = groups_[top].offset;
      for (int k = 0; k < run.size; ++k) {
        run.set[k] = TableSet(
            upper | static_cast<uint64_t>(g0.pattern_of_digit[k]) << g0.offset);
        // Below the top group a lane's prefix holds its group 0 digit; a
        // run within group 0 has the empty prefix.
        run.prefix_rank[k] = top == 0 ? 0 : prefix_rank + k;
      }
      // Both slots of every group are copied, and the count advances past
      // the used ones: a copy of `count` entries compiles to memcpy calls.
      int num_upper = 0;
      for (size_t gi = 1; gi < groups_.size(); ++gi) {
        const InnerTables& inner = groups_[gi].inner[digit[gi]];
        run.upper_table[num_upper] = inner.table[0];
        run.upper_table[num_upper + 1] = inner.table[1];
        run.upper_delta[num_upper] = inner.delta[0];
        run.upper_delta[num_upper + 1] = inner.delta[1];
        num_upper += inner.count;
      }
      run.num_upper = num_upper;
      fn(static_cast<const LinearRun&>(run));
      if (rank + run.size == size_) return;
      // ForEachSet's odometer from group 1: the run's last lane is group
      // 0's last digit, so the next set wraps group 0 and moves a higher
      // group.
      size_t gi = 1;
      for (;; ++gi) {
        const Group& g = groups_[gi];
        upper ^= static_cast<uint64_t>(g.pattern_of_digit[digit[gi]])
                 << g.offset;
        if (++digit[gi] < g.num_digits) {
          upper |= static_cast<uint64_t>(g.pattern_of_digit[digit[gi]])
                   << g.offset;
          break;
        }
        digit[gi] = 0;
      }
      if (gi < top) {
        prefix_rank += run.size;
      } else {
        top = gi;
        prefix_rank = 0;
      }
    }
  }

  /// Total number of admissible ordered splits summed over all admissible
  /// join results of cardinality >= 2, excluding trivial splits. Used by
  /// the complexity ablation (Theorem 7's 3^n (21/27)^l bound).
  int64_t CountAdmissibleSplits() const;

 private:
  struct Group {
    int offset = 0;  ///< index of the first table in the group
    int width = 0;   ///< 1, 2, or 3 tables
    int num_digits = 0;
    int64_t stride = 0;
    /// pattern (local bits) -> digit, or -1 if inadmissible.
    int8_t digit_of_pattern[8];
    /// digit -> pattern (local bits).
    uint8_t pattern_of_digit[8];
    uint8_t popcount_of_digit[8];
    /// split_list[p] = sub-patterns l of p such that both l and p\l are
    /// admissible patterns; split_count[p] is its length.
    uint8_t split_list[8][8];
    uint8_t split_count[8];
    /// Linear groups (at most 4 digits): each digit's inner tables.
    InnerTables inner[4];
  };

  /// Fills digit/pattern/split tables of `g`; `excluded_pattern` is the
  /// local bit pattern a constraint forbids, or 0xFF for none.
  static void BuildGroupTables(Group* g, uint8_t excluded_pattern);

  static uint8_t LocalPattern(TableSet s, const Group& g) {
    return static_cast<uint8_t>((s.bits() >> g.offset) &
                                ((uint64_t{1} << g.width) - 1));
  }

  template <typename Fn>
  void SplitRec(size_t group_idx, TableSet u, TableSet left,
                int64_t left_rank, int64_t right_rank, Fn&& fn) const {
    if (group_idx == groups_.size()) {
      if (!left.IsEmpty() && left != u) fn(left, left_rank, right_rank);
      return;
    }
    const Group& g = groups_[group_idx];
    const uint8_t pattern = LocalPattern(u, g);
    const uint8_t count = g.split_count[pattern];
    const uint8_t* list = g.split_list[pattern];
    for (uint8_t i = 0; i < count; ++i) {
      const uint8_t l = list[i];
      const uint8_t r = static_cast<uint8_t>(pattern & ~l);
      const TableSet bits(static_cast<uint64_t>(l) << g.offset);
      SplitRec(group_idx + 1, u, left.Union(bits),
               left_rank + g.digit_of_pattern[l] * g.stride,
               right_rank + g.digit_of_pattern[r] * g.stride, fn);
    }
  }

  int num_tables_;
  PlanSpace space_;
  std::vector<Group> groups_;
  int64_t size_;
  /// count_by_card_[k] = number of admissible sets with k tables.
  std::vector<int64_t> count_by_card_;
};

}  // namespace mpqopt

#endif  // MPQOPT_PARTITION_PARTITION_INDEX_H_
