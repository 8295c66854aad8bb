// Copyright 2026 mpqopt authors.
//
// Unit tests of PlanArena's storage (plan/plan.h): reserved capacity,
// MemoryBytes accounting, and the deep copy and move semantics the plan
// cache depends on.

#include <utility>

#include <gtest/gtest.h>

#include "plan/plan.h"

namespace mpqopt {
namespace {

TEST(PlanArenaTest, DeepCopyIsIndependent) {
  PlanArena source;
  const CostVector cost = CostVector::Scalar(2.0);
  const PlanId a = source.MakeScan(0, 5.0, cost);
  const PlanId b = source.MakeScan(1, 6.0, cost);
  const PlanId j =
      source.MakeJoin(JoinAlgorithm::kHashJoin, a, b, 30.0, cost);

  PlanArena copy = source;
  ASSERT_EQ(copy.size(), source.size());
  EXPECT_EQ(PlanToString(copy, j), PlanToString(source, j));
  // Growing the copy leaves the source untouched.
  copy.MakeScan(2, 7.0, cost);
  EXPECT_EQ(source.size(), 3u);
  EXPECT_EQ(copy.size(), 4u);
}

TEST(PlanArenaTest, CopyAssignReplacesContents) {
  const CostVector cost = CostVector::Scalar(1.0);
  PlanArena a;
  for (int i = 0; i < 100; ++i) a.MakeScan(i % 10, 1.0, cost);
  PlanArena b;
  b.MakeScan(5, 9.0, cost);
  a = b;
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.node(0).table, 5);
}

TEST(PlanArenaTest, ReserveAvoidsLaterChunkGrowth) {
  PlanArena arena;
  arena.Reserve(5000);
  const CostVector cost = CostVector::Scalar(1.0);
  const PlanId first = arena.MakeScan(0, 1.0, cost);
  const PlanNode* before = &arena.node(first);
  for (int i = 1; i < 5000; ++i) arena.MakeScan(i % 20, 1.0, cost);
  EXPECT_EQ(&arena.node(first), before);
}

TEST(PlanArenaTest, MemoryBytesTracksGrowthAndClear) {
  PlanArena arena;
  const size_t empty = arena.MemoryBytes();
  const CostVector cost = CostVector::Scalar(1.0);
  for (int i = 0; i < 1000; ++i) arena.MakeScan(i % 20, 1.0, cost);
  EXPECT_GE(arena.MemoryBytes(), 1000 * sizeof(PlanNode));
  arena.Clear();
  EXPECT_EQ(arena.size(), 0u);
  // Clear keeps (repacked) storage but never exceeds the grown footprint.
  EXPECT_GE(arena.MemoryBytes(), empty);
}

TEST(PlanArenaTest, MoveLeavesSourceEmpty) {
  PlanArena source;
  const CostVector cost = CostVector::Scalar(1.0);
  source.MakeScan(3, 4.0, cost);
  PlanArena moved(std::move(source));
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.node(0).table, 3);
  EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace mpqopt
