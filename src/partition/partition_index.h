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
//  * the linear twin, ForEachLinearSplit: every admissible inner table of
//    a set with its left operand's rank, from a precomputed per-table
//    rank-delta table instead of a Rank() call or a per-table test.

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

  /// Linear DP: invokes fn(int inner, int64_t left_rank) for every table
  /// t of the admissible set `u` (whose rank is `rank`) that may serve as
  /// its inner (last-joined) operand, in ascending order of t, and
  /// returns how many there are. These are the t with no constraint
  /// (t ≺ v) for a v in u (Algorithm 5, linear variant); u \ {t} is then
  /// admissible too (Theorem 2's argument), and left_rank is its rank.
  /// Every constraint lies within its pair, so two shifted masks block
  /// the tables, and each left rank is one table lookup: no per-table
  /// test branches on which tables u holds.
  template <typename Fn>
  int ForEachLinearSplit(TableSet u, int64_t rank, Fn&& fn) const {
    MPQOPT_DCHECK(space_ == PlanSpace::kLinear);
    const uint64_t bits = u.bits();
    const uint64_t blocked =
        ((bits >> 1) & blocked_by_next_) | ((bits << 1) & blocked_by_prev_);
    const TableSet inner(bits & ~blocked);
    for (int t : inner) {
      const int64_t delta =
          rank_delta_[t][(bits >> group_offset_[t]) & group_mask_[t]];
      MPQOPT_DCHECK(delta > 0);
      fn(t, rank - delta);
    }
    return inner.Count();
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
  /// The linear constraints (before ≺ after, within one pair) as masks
  /// of their `before` tables: blocked_by_next_ where after = before + 1,
  /// blocked_by_prev_ where after = before - 1. A set that holds `after`
  /// cannot take `before` as its inner table.
  uint64_t blocked_by_next_ = 0;
  uint64_t blocked_by_prev_ = 0;
  /// rank_delta_[t][p] = Rank(s) - Rank(s \ {t}) for every admissible s
  /// whose local pattern in t's group is p, when p holds t and p \ {t} is
  /// admissible; 0, which no valid delta is, otherwise.
  int64_t rank_delta_[kMaxTables][8] = {};
  /// Offset and local-pattern mask of each table's group.
  uint8_t group_offset_[kMaxTables] = {};
  uint8_t group_mask_[kMaxTables] = {};
  /// count_by_card_[k] = number of admissible sets with k tables.
  std::vector<int64_t> count_by_card_;
};

}  // namespace mpqopt

#endif  // MPQOPT_PARTITION_PARTITION_INDEX_H_
