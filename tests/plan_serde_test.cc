// Copyright 2026 mpqopt authors.

#include "plan/plan_serde.h"

#include <gtest/gtest.h>

namespace mpqopt {
namespace {

PlanId BuildSample(PlanArena* arena) {
  const PlanId s0 = arena->MakeScan(0, 100, CostVector::Scalar(100));
  const PlanId s1 = arena->MakeScan(1, 200, CostVector::Scalar(200));
  const PlanId s2 = arena->MakeScan(2, 300, CostVector::Scalar(300));
  const PlanId j = arena->MakeJoin(JoinAlgorithm::kSortMergeJoin, s1, s2, 40,
                                   CostVector::Scalar(900));
  return arena->MakeJoin(JoinAlgorithm::kHashJoin, s0, j, 10,
                         CostVector::Scalar(1500));
}

TEST(PlanSerdeTest, RoundTripPreservesStructure) {
  PlanArena src;
  const PlanId root = BuildSample(&src);
  ByteWriter w;
  SerializePlan(src, root, &w);

  PlanArena dst;
  ByteReader r(w.buffer());
  StatusOr<PlanId> back = DeserializePlan(&r, &dst);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(PlanToString(dst, back.value()), PlanToString(src, root));
  EXPECT_EQ(dst.node(back.value()).tables, src.node(root).tables);
  EXPECT_DOUBLE_EQ(dst.node(back.value()).cost.time(),
                   src.node(root).cost.time());
  EXPECT_DOUBLE_EQ(dst.node(back.value()).cardinality,
                   src.node(root).cardinality);
}

TEST(PlanSerdeTest, RoundTripSingleScan) {
  PlanArena src;
  const PlanId scan = src.MakeScan(5, 77, CostVector::Scalar(77));
  ByteWriter w;
  SerializePlan(src, scan, &w);
  PlanArena dst;
  ByteReader r(w.buffer());
  StatusOr<PlanId> back = DeserializePlan(&r, &dst);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(dst.node(back.value()).IsScan());
  EXPECT_EQ(dst.node(back.value()).table, 5);
}

TEST(PlanSerdeTest, RoundTripMultiMetricCosts) {
  PlanArena src;
  const PlanId s0 = src.MakeScan(0, 10, CostVector::TimeBuffer(10, 100));
  const PlanId s1 = src.MakeScan(1, 20, CostVector::TimeBuffer(20, 100));
  const PlanId j = src.MakeJoin(JoinAlgorithm::kHashJoin, s0, s1, 5,
                                CostVector::TimeBuffer(66, 200));
  ByteWriter w;
  SerializePlan(src, j, &w);
  PlanArena dst;
  ByteReader r(w.buffer());
  StatusOr<PlanId> back = DeserializePlan(&r, &dst);
  ASSERT_TRUE(back.ok());
  const CostVector& cost = dst.node(back.value()).cost;
  EXPECT_EQ(cost.num_metrics(), 2);
  EXPECT_DOUBLE_EQ(cost[1], 200);
}

TEST(PlanSerdeTest, PlanSetRoundTrip) {
  PlanArena src;
  std::vector<PlanId> ids;
  ids.push_back(BuildSample(&src));
  ids.push_back(src.MakeScan(7, 42, CostVector::Scalar(42)));
  ByteWriter w;
  SerializePlanSet(src, ids, &w);
  PlanArena dst;
  ByteReader r(w.buffer());
  StatusOr<std::vector<PlanId>> back = DeserializePlanSet(&r, &dst);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(PlanToString(dst, back.value()[0]), PlanToString(src, ids[0]));
  EXPECT_EQ(PlanToString(dst, back.value()[1]), "R7");
}

TEST(PlanSerdeTest, EmptyPlanSetRoundTrip) {
  PlanArena src;
  ByteWriter w;
  SerializePlanSet(src, {}, &w);
  PlanArena dst;
  ByteReader r(w.buffer());
  StatusOr<std::vector<PlanId>> back = DeserializePlanSet(&r, &dst);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(PlanSerdeTest, BadTagIsCorruption) {
  ByteWriter w;
  w.WriteU8(200);  // invalid node tag
  PlanArena dst;
  ByteReader r(w.buffer());
  EXPECT_EQ(DeserializePlan(&r, &dst).status().code(),
            StatusCode::kCorruption);
}

TEST(PlanSerdeTest, TruncatedPlanIsCorruption) {
  PlanArena src;
  const PlanId root = BuildSample(&src);
  ByteWriter w;
  SerializePlan(src, root, &w);
  std::vector<uint8_t> truncated(w.buffer().begin(),
                                 w.buffer().begin() + w.size() - 4);
  PlanArena dst;
  ByteReader r(truncated);
  EXPECT_FALSE(DeserializePlan(&r, &dst).ok());
}

TEST(PlanSerdeTest, OverlappingOperandsRejected) {
  // Hand-craft a malicious payload: Join(Scan(0), Scan(0)).
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(JoinAlgorithm::kHashJoin));
  for (int i = 0; i < 2; ++i) {
    w.WriteU8(static_cast<uint8_t>(JoinAlgorithm::kScan));
    w.WriteU32(0);
    w.WriteDouble(10);
    CostVector::Scalar(10).Serialize(&w);
  }
  w.WriteDouble(5);
  CostVector::Scalar(50).Serialize(&w);
  PlanArena dst;
  ByteReader r(w.buffer());
  EXPECT_EQ(DeserializePlan(&r, &dst).status().code(),
            StatusCode::kCorruption);
}

TEST(PlanSerdeTest, ScanTableOutOfRangeRejected) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(JoinAlgorithm::kScan));
  w.WriteU32(1000);  // > kMaxTables
  w.WriteDouble(10);
  CostVector::Scalar(10).Serialize(&w);
  PlanArena dst;
  ByteReader r(w.buffer());
  EXPECT_FALSE(DeserializePlan(&r, &dst).ok());
}

/// kMaxTables scans joined by hash joins into one plan that nests every
/// join under all the earlier ones: left-deep, or right-deep.
PlanId BuildWidest(bool left_deep, PlanArena* arena) {
  PlanId root = arena->MakeScan(0, 1, CostVector::Scalar(1));
  for (int t = 1; t < kMaxTables; ++t) {
    const PlanId scan = arena->MakeScan(t, 1, CostVector::Scalar(1));
    root = left_deep ? arena->MakeJoin(JoinAlgorithm::kHashJoin, root, scan,
                                       1, CostVector::Scalar(t))
                     : arena->MakeJoin(JoinAlgorithm::kHashJoin, scan, root,
                                       1, CostVector::Scalar(t));
  }
  return root;
}

TEST(PlanSerdeTest, NestingIsBoundedByTheWidestPlan) {
  const uint8_t join = static_cast<uint8_t>(JoinAlgorithm::kHashJoin);
  for (bool left_deep : {true, false}) {
    PlanArena src;
    const PlanId root = BuildWidest(left_deep, &src);
    ByteWriter w;
    SerializePlan(src, root, &w);
    PlanArena dst;
    ByteReader r(w.buffer());
    StatusOr<PlanId> back = DeserializePlan(&r, &dst);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(PlanToString(dst, back.value()), PlanToString(src, root));
    EXPECT_EQ(CountJoins(dst, back.value()), kMaxTables - 1);

    // One more join on top nests the deepest join under kMaxTables - 1
    // others, which no plan over kMaxTables tables does.
    std::vector<uint8_t> deeper = w.buffer();
    deeper.insert(deeper.begin(), join);
    ByteReader deeper_reader(deeper);
    const Status status = DeserializePlan(&deeper_reader, &dst).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_EQ(status.message(), "plan nests too deep");
  }

  // A peer's run of join tags must fail, not exhaust the decoder's stack.
  const std::vector<uint8_t> tags(100000, join);
  PlanArena dst;
  ByteReader plan_reader(tags);
  EXPECT_EQ(DeserializePlan(&plan_reader, &dst).status().code(),
            StatusCode::kCorruption);
  ByteWriter set;
  set.WriteU32(1);
  set.WriteBytes(tags.data(), tags.size());
  ByteReader set_reader(set.buffer());
  EXPECT_EQ(DeserializePlanSet(&set_reader, &dst).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace mpqopt
