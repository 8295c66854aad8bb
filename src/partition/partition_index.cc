// Copyright 2026 mpqopt authors.

#include "partition/partition_index.h"

#include <bit>
#include <cstring>

namespace mpqopt {
namespace {

/// Local bit pattern (within a group of `width` tables) that a constraint
/// on that group excludes from admissible join results. Returns the single
/// excluded pattern:
///  * linear, constraint a ≺ b within pair: pattern {b} (contains the
///    successor without the predecessor);
///  * bushy, constraint x ⪯ y|z within triple: pattern {y, z} (contains y
///    and z without x).
uint8_t ExcludedPattern(const LinearConstraint& c, int offset) {
  return static_cast<uint8_t>(1u << (c.after - offset));
}

uint8_t ExcludedPattern(const BushyConstraint& c, int offset) {
  return static_cast<uint8_t>((1u << (c.y - offset)) |
                              (1u << (c.z - offset)));
}

}  // namespace

PartitionIndex::PartitionIndex(int num_tables,
                               const ConstraintSet& constraints)
    : num_tables_(num_tables), space_(constraints.space()) {
  MPQOPT_CHECK_GE(num_tables, 1);
  MPQOPT_CHECK_LE(num_tables, kMaxTables);
  const int width = GroupWidth(space_);
  const int num_full_groups = num_tables / width;
  MPQOPT_CHECK_LE(constraints.num_constraints(), num_full_groups);

  if (space_ == PlanSpace::kLinear) {
    for (const LinearConstraint& c : constraints.linear()) {
      MPQOPT_CHECK_EQ(c.before / 2, c.after / 2);  // within pair (2i, 2i + 1)
      MPQOPT_CHECK_NE(c.before, c.after);
    }
  }

  // Build one group per full pair/triple, then one single-table group per
  // leftover table. Constraint i always concerns group i (paper
  // Algorithm 3 numbers constraints over consecutive disjoint groups).
  int64_t stride = 1;
  for (int gi = 0; gi * width < num_tables; ++gi) {
    const int offset = gi * width;
    const int actual_width =
        offset + width <= num_tables ? width : num_tables - offset;
    if (actual_width < width) {
      // Leftover tables form unconstrained single-table groups.
      for (int t = offset; t < num_tables; ++t) {
        Group g;
        g.offset = t;
        g.width = 1;
        g.stride = stride;
        BuildGroupTables(&g, /*excluded_pattern=*/0xFF);
        stride *= g.num_digits;
        groups_.push_back(g);
      }
      break;
    }
    Group g;
    g.offset = offset;
    g.width = width;
    g.stride = stride;
    uint8_t excluded = 0xFF;  // 0xFF = no constraint on this group
    if (space_ == PlanSpace::kLinear) {
      if (gi < static_cast<int>(constraints.linear().size())) {
        excluded = ExcludedPattern(constraints.linear()[gi], offset);
      }
    } else {
      if (gi < static_cast<int>(constraints.bushy().size())) {
        excluded = ExcludedPattern(constraints.bushy()[gi], offset);
      }
    }
    BuildGroupTables(&g, excluded);
    stride *= g.num_digits;
    groups_.push_back(g);
  }
  size_ = stride;

  // Removing table t from a set changes only the digit of t's group, and
  // leaves an admissible set exactly when it leaves an admissible pattern.
  if (space_ == PlanSpace::kLinear) {
    for (Group& g : groups_) {
      for (int d = 0; d < g.num_digits; ++d) {
        const int p = g.pattern_of_digit[d];
        InnerTables& inner = g.inner[d];
        for (int bit = 0; bit < g.width; ++bit) {
          const int8_t reduced = g.digit_of_pattern[p & ~(1 << bit)];
          if (((p >> bit) & 1) == 0 || reduced < 0) continue;
          inner.table[inner.count] = g.offset + bit;
          inner.delta[inner.count] = (d - reduced) * g.stride;
          ++inner.count;
        }
      }
    }
  }

  // Cardinality histogram via DP over groups.
  count_by_card_.assign(num_tables_ + 1, 0);
  std::vector<int64_t> counts(num_tables_ + 1, 0);
  counts[0] = 1;
  for (const Group& g : groups_) {
    std::vector<int64_t> next(num_tables_ + 1, 0);
    for (int k = 0; k <= num_tables_; ++k) {
      if (counts[k] == 0) continue;
      for (int d = 0; d < g.num_digits; ++d) {
        next[k + g.popcount_of_digit[d]] += counts[k];
      }
    }
    counts.swap(next);
  }
  count_by_card_ = counts;
}

void PartitionIndex::BuildGroupTables(Group* g, uint8_t excluded_pattern) {
  MPQOPT_CHECK_LE(g->width, 3);  // the tables below hold 8 patterns
  const int num_patterns = 1 << g->width;
  std::memset(g->digit_of_pattern, -1, sizeof(g->digit_of_pattern));
  std::memset(g->split_count, 0, sizeof(g->split_count));
  g->num_digits = 0;
  for (int p = 0; p < num_patterns; ++p) {
    if (p == excluded_pattern) continue;
    const int d = g->num_digits++;
    g->digit_of_pattern[p] = static_cast<int8_t>(d);
    g->pattern_of_digit[d] = static_cast<uint8_t>(p);
    g->popcount_of_digit[d] =
        static_cast<uint8_t>(std::popcount(static_cast<unsigned>(p)));
  }
  // Split lists: for each admissible pattern p, the sub-patterns l with
  // both l and p\l admissible. This encodes Algorithm 5's two exclusion
  // rules (line 25: l violates a constraint; line 27: the complement of l
  // violates it) in a single table.
  for (int p = 0; p < num_patterns; ++p) {
    if (g->digit_of_pattern[p] < 0) continue;
    uint8_t count = 0;
    // Enumerate all sub-patterns of p, including 0 and p itself.
    uint8_t l = 0;
    while (true) {
      const uint8_t r = static_cast<uint8_t>(p & ~l);
      if (g->digit_of_pattern[l] >= 0 && g->digit_of_pattern[r] >= 0) {
        g->split_list[p][count++] = l;
      }
      if (l == p) break;
      l = static_cast<uint8_t>((l - p) & p);  // next sub-pattern of p
    }
    g->split_count[p] = count;
  }
}

TableSet PartitionIndex::SetOfRank(int64_t rank) const {
  MPQOPT_CHECK(rank >= 0 && rank < size_);
  // Group 0 is the least significant digit, and each group's stride is
  // the product of the digit counts below it.
  uint64_t bits = 0;
  for (const Group& g : groups_) {
    bits |= static_cast<uint64_t>(g.pattern_of_digit[rank % g.num_digits])
            << g.offset;
    rank /= g.num_digits;
  }
  return TableSet(bits);
}

int64_t PartitionIndex::CountSetsOfCard(int k) const {
  if (k < 0 || k > num_tables_) return 0;
  return count_by_card_[k];
}

int64_t PartitionIndex::CountAdmissibleSplits() const {
  int64_t total = 0;
  ForEachSet([&](TableSet u, int64_t, int64_t, int) {
    if (u.Count() < 2) return;
    int64_t splits = 1;
    for (const Group& g : groups_) {
      splits *= g.split_count[LocalPattern(u, g)];
    }
    total += splits - 2;  // exclude left = {} and left = u
  });
  return total;
}

}  // namespace mpqopt
