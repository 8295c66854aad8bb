// Copyright 2026 mpqopt authors.

#include "mpq/heterogeneous.h"

#include <gtest/gtest.h>

#include "catalog/generator.h"
#include "optimizer/dp.h"
#include "plan/plan_serde.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

std::vector<uint8_t> SerializedBest(const MpqResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

TEST(AssignPartitionsTest, EqualSpeedsEqualShares) {
  const auto shares = AssignPartitions({1, 1, 1, 1}, 16);
  ASSERT_EQ(shares.size(), 4u);
  for (const PartitionShare& share : shares) EXPECT_EQ(share.size(), 4u);
}

TEST(AssignPartitionsTest, ProportionalToSpeed) {
  const auto shares = AssignPartitions({3, 1}, 16);
  EXPECT_EQ(shares[0].size(), 12u);
  EXPECT_EQ(shares[1].size(), 4u);
}

TEST(AssignPartitionsTest, SharesContiguousDisjointAndComplete) {
  const auto shares = AssignPartitions({2.5, 1.0, 0.5, 4.0}, 32);
  uint64_t next = 0;
  uint64_t total = 0;
  for (const PartitionShare& share : shares) {
    EXPECT_EQ(share.begin, next);
    next = share.end;
    total += share.size();
  }
  EXPECT_EQ(next, 32u);
  EXPECT_EQ(total, 32u);
}

TEST(AssignPartitionsTest, VerySlowWorkerMayGetNothing) {
  const auto shares = AssignPartitions({100, 0.001}, 4);
  EXPECT_EQ(shares[0].size(), 4u);
  EXPECT_EQ(shares[1].size(), 0u);
}

TEST(AssignPartitionsTest, RemaindersDistributed) {
  // 7 partitions over 3 equal workers: 3/2/2 (largest remainder).
  const auto shares = AssignPartitions({1, 1, 1}, 7);
  uint64_t total = 0;
  for (const PartitionShare& share : shares) {
    total += share.size();
    EXPECT_GE(share.size(), 2u);
    EXPECT_LE(share.size(), 3u);
  }
  EXPECT_EQ(total, 7u);
}

TEST(HeteroMpqTest, FindsSerialOptimum) {
  const Query q = RandomQuery(10, 101);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 32;  // plan-space partitions
  HeteroMpqOptimizer mpq(opts, {4.0, 2.0, 1.0, 1.0});
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

TEST(HeteroMpqTest, MatchesHomogeneousMpq) {
  const Query q = RandomQuery(10, 103);
  MpqOptions opts;
  opts.space = PlanSpace::kBushy;
  opts.num_workers = 8;
  MpqOptimizer homo(opts);
  HeteroMpqOptimizer hetero(opts, {1.0, 3.0});
  StatusOr<MpqResult> a = homo.Optimize(q);
  StatusOr<MpqResult> b = hetero.Optimize(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().arena.node(a.value().best[0]).cost.time(),
                   b.value().arena.node(b.value().best[0]).cost.time());
  // Range prune then master merge keep the first cheapest plan in
  // partition order, exactly as one flat merge does.
  EXPECT_EQ(SerializedBest(b.value()), SerializedBest(a.value()));
  // The ranges' reports add up to the same work: summed splits and
  // plans, and the largest memo.
  EXPECT_EQ(b.value().total_splits, a.value().total_splits);
  EXPECT_EQ(b.value().total_plans_costed, a.value().total_plans_costed);
  EXPECT_EQ(b.value().max_worker_memo_sets, a.value().max_worker_memo_sets);
}

TEST(HeteroMpqTest, OneTaskPerPhysicalWorker) {
  const Query q = RandomQuery(8, 105);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 16;
  HeteroMpqOptimizer mpq(opts, {2.0, 1.0, 1.0});
  StatusOr<MpqResult> result = mpq.Optimize(q);
  ASSERT_TRUE(result.ok());
  // 3 physical workers -> 3 requests + 3 responses on the wire.
  EXPECT_EQ(result.value().network_messages, 6u);
  EXPECT_EQ(result.value().worker_seconds.size(), 3u);
}

/// Each worker's DP work (splits tried, from its own WorkerMain
/// response) divided by its speed: the simulated time of its share in
/// units a scheduler stall on a loaded host cannot move.
std::vector<double> ScaledWork(const Query& q, const MpqOptions& opts,
                               const std::vector<double>& speeds,
                               const std::vector<PartitionShare>& shares) {
  std::vector<double> scaled;
  for (size_t i = 0; i < shares.size(); ++i) {
    StatusOr<std::vector<uint8_t>> response = HeteroMpqOptimizer::WorkerMain(
        HeteroMpqOptimizer::BuildRequest(q, shares[i], opts));
    MPQOPT_CHECK(response.ok());
    StatusOr<MpqResult> report =
        MpqOptimizer::FinalizeResponses({response.value()}, opts);
    MPQOPT_CHECK(report.ok());
    scaled.push_back(static_cast<double>(report.value().total_splits) /
                     speeds[i]);
  }
  return scaled;
}

TEST(HeteroMpqTest, ProportionalAssignmentBalancesSimulatedTime) {
  // With shares proportional to speed, scaled per-worker work should be
  // within a small factor of each other; with uniform shares on the same
  // (heterogeneous) cluster, the slow worker dominates.
  const Query q = RandomQuery(12, 107);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 64;
  const std::vector<double> speeds = {4.0, 1.0};
  // 4x-speed worker got 4x the partitions: scaled work comparable.
  const std::vector<double> proportional =
      ScaledWork(q, opts, speeds, AssignPartitions(speeds, 64));
  ASSERT_EQ(proportional.size(), 2u);
  EXPECT_LT(std::max(proportional[0], proportional[1]),
            3.0 * std::min(proportional[0], proportional[1]));
  const std::vector<double> uniform =
      ScaledWork(q, opts, speeds, AssignPartitions({1.0, 1.0}, 64));
  EXPECT_GT(uniform[1], 3.0 * uniform[0]);
}

TEST(HeteroMpqTest, MultiObjectiveRange) {
  const Query q = RandomQuery(8, 110);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  opts.num_workers = 8;
  HeteroMpqOptimizer hetero(opts, {1.0, 2.0});
  MpqOptimizer homo(opts);
  StatusOr<MpqResult> a = hetero.Optimize(q);
  StatusOr<MpqResult> b = homo.Optimize(q);
  ASSERT_TRUE(a.ok() && b.ok());
  // At alpha = 1 the two-level prune keeps each Pareto-optimal cost's
  // first plan in partition order, like the flat merge: same frontier,
  // byte for byte.
  EXPECT_GT(b.value().best.size(), 1u);
  EXPECT_EQ(a.value().best.size(), b.value().best.size());
  EXPECT_EQ(SerializedBest(a.value()), SerializedBest(b.value()));
}

TEST(HeteroMpqTest, IdleWorkerReturnsAnEmptyPlanSet) {
  const Query q = RandomQuery(8, 113);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;
  StatusOr<std::vector<uint8_t>> idle = HeteroMpqOptimizer::WorkerMain(
      HeteroMpqOptimizer::BuildRequest(q, PartitionShare{4, 4}, opts));
  ASSERT_TRUE(idle.ok());
  // Zero counters and seconds, then a plan count of zero.
  EXPECT_EQ(idle.value(), std::vector<uint8_t>(4 * 8 + 4, 0));
  // A cluster with an idle worker still finds the homogeneous plan.
  HeteroMpqOptimizer hetero(opts, {100.0, 0.001});
  MpqOptimizer homo(opts);
  StatusOr<MpqResult> a = hetero.Optimize(q);
  StatusOr<MpqResult> b = homo.Optimize(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(SerializedBest(a.value()), SerializedBest(b.value()));
}

TEST(HeteroMpqTest, RejectsNonPowerOfTwoPartitions) {
  const Query q = RandomQuery(8, 111);
  MpqOptions opts;
  opts.num_workers = 6;
  HeteroMpqOptimizer mpq(opts, {1.0, 1.0});
  EXPECT_FALSE(mpq.Optimize(q).ok());
}

TEST(HeteroMpqTest, WorkerMainRejectsGarbage) {
  std::vector<uint8_t> garbage(40, 0xEE);
  EXPECT_FALSE(HeteroMpqOptimizer::WorkerMain(garbage).ok());
}

}  // namespace
}  // namespace mpqopt
