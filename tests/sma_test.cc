// Copyright 2026 mpqopt authors.

#include "sma/sma.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "catalog/generator.h"
#include "common/serialize.h"
#include "mpq/mpq.h"
#include "optimizer/pruning.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"
#include "sma/sma_node.h"
#include "tests/overflow_query.h"
#include "tests/plan_digest.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

SmaOptions Options(PlanSpace space, uint64_t workers) {
  SmaOptions opts;
  opts.space = space;
  opts.num_workers = workers;
  return opts;
}

/// The canonical wire bytes of a result's winning plan(s).
std::vector<uint8_t> PlanBytes(const SmaResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

// SMA's replicas run through the session protocol, so the hosting choice
// — including REMOTE replicas in mpqopt_worker processes over real
// sockets — must be invisible: plan cost, rounds, and the network series
// byte-for-byte identical to the default in-process run. This is the
// acceptance gate for stateful remote workers; the rpc parameter
// self-hosts loopback worker subprocesses and does NOT skip.
class SmaBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kRpc) farm_.Start(2);
  }

  std::shared_ptr<ExecutionBackend> MakeTestBackend() {
    BackendOptions options;
    options.max_threads = 2;
    options.workers_addr = farm_.workers_addr();
    StatusOr<std::shared_ptr<ExecutionBackend>> backend =
        MakeBackend(GetParam(), options);
    MPQOPT_CHECK(backend.ok());
    return std::move(backend).value();
  }

  RpcWorkerFarm farm_;
};

TEST_P(SmaBackendTest, MatchesDefaultBackendByteForByte) {
  const Query q = RandomQuery(9, 301);
  SmaOptions base = Options(PlanSpace::kLinear, 3);
  // The backend hosts the replicas but does not model time: with 1 s of
  // dispatch per task, every round (the open plus eight levels) of three
  // nodes costs at least 3 s, with a given backend as without one.
  base.network.task_setup_s = 1.0;
  StatusOr<SmaResult> reference = SmaOptimize(q, base);
  ASSERT_TRUE(reference.ok());

  SmaOptions with_backend = base;
  with_backend.backend = MakeTestBackend();
  StatusOr<SmaResult> result = SmaOptimize(q, with_backend);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(PlanBytes(result.value()), PlanBytes(reference.value()));
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      reference.value().arena.node(reference.value().best[0]).cost.time());
  EXPECT_EQ(result.value().rounds, reference.value().rounds);
  EXPECT_EQ(result.value().network_bytes, reference.value().network_bytes);
  EXPECT_EQ(result.value().network_messages,
            reference.value().network_messages);
  EXPECT_EQ(result.value().max_worker_memo_sets,
            reference.value().max_worker_memo_sets);
  EXPECT_GE(result.value().simulated_seconds, 9 * 3 * 1.0);
  EXPECT_NEAR(result.value().simulated_seconds,
              reference.value().simulated_seconds, 0.5);
}

TEST_P(SmaBackendTest, MultiObjectiveFrontierMatchesByteForByte) {
  const Query q = RandomQuery(7, 303);
  SmaOptions base = Options(PlanSpace::kLinear, 4);
  base.objective = Objective::kTimeAndBuffer;
  base.alpha = 1.5;
  StatusOr<SmaResult> reference = SmaOptimize(q, base);
  ASSERT_TRUE(reference.ok());

  SmaOptions with_backend = base;
  with_backend.backend = MakeTestBackend();
  StatusOr<SmaResult> result = SmaOptimize(q, with_backend);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result.value().best.size(), reference.value().best.size());
  EXPECT_EQ(PlanBytes(result.value()), PlanBytes(reference.value()));
  EXPECT_EQ(result.value().network_bytes, reference.value().network_bytes);
  EXPECT_EQ(result.value().network_messages,
            reference.value().network_messages);
}

TEST_P(SmaBackendTest, BushySpaceMatchesSerialOptimum) {
  const Query q = RandomQuery(7, 305);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  SmaOptions opts = Options(PlanSpace::kBushy, 3);
  opts.backend = MakeTestBackend();
  StatusOr<SmaResult> result = SmaOptimize(q, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SmaBackendTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(SmaTest, FindsSerialOptimumLinear) {
  const Query q = RandomQuery(8, 61);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  for (uint64_t m : {1u, 2u, 3u, 7u}) {
    StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kLinear, m));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_DOUBLE_EQ(
        result.value().arena.node(result.value().best[0]).cost.time(),
        serial.value().arena.node(serial.value().best[0]).cost.time())
        << m;
  }
}

TEST(SmaTest, FindsSerialOptimumBushy) {
  const Query q = RandomQuery(7, 63);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kBushy, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

TEST(SmaTest, AgreesWithMpq) {
  const Query q = RandomQuery(10, 65);
  MpqOptions mpq_opts;
  mpq_opts.space = PlanSpace::kLinear;
  mpq_opts.num_workers = 8;
  MpqOptimizer mpq(mpq_opts);
  StatusOr<MpqResult> mpq_result = mpq.Optimize(q);
  StatusOr<SmaResult> sma_result =
      SmaOptimize(q, Options(PlanSpace::kLinear, 8));
  ASSERT_TRUE(mpq_result.ok() && sma_result.ok());
  EXPECT_DOUBLE_EQ(
      mpq_result.value().arena.node(mpq_result.value().best[0]).cost.time(),
      sma_result.value().arena.node(sma_result.value().best[0]).cost.time());
}

TEST(SmaTest, PlanValidates) {
  const Query q = RandomQuery(8, 67);
  StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kLinear, 4));
  ASSERT_TRUE(result.ok());
  const CostModel model(Objective::kTime);
  PlanValidationOptions vopts;
  vopts.require_left_deep = true;
  EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                           model, vopts)
                  .ok());
}

TEST(SmaTest, RoundsEqualLevels) {
  const Query q = RandomQuery(8, 69);
  StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kLinear, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rounds, 7);  // levels 2..8
}

TEST(SmaTest, NetworkGrowsWithWorkers) {
  // The broadcastmakes SMA traffic grow linearly in m on top of an
  // exponential-in-n base — the separation from MPQ in Figure 1.
  const Query q = RandomQuery(10, 71);
  uint64_t bytes1 = 0, bytes8 = 0;
  {
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 1));
    ASSERT_TRUE(r.ok());
    bytes1 = r.value().network_bytes;
  }
  {
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 8));
    ASSERT_TRUE(r.ok());
    bytes8 = r.value().network_bytes;
  }
  EXPECT_GT(bytes8, bytes1 * 4);
}

TEST(SmaTest, NetworkGrowsExponentiallyWithQuerySize) {
  uint64_t previous = 0;
  for (int n : {8, 10, 12}) {
    const Query q = RandomQuery(n, 73);
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 4));
    ASSERT_TRUE(r.ok());
    if (previous > 0) {
      EXPECT_GT(r.value().network_bytes, 2 * previous);
    }
    previous = r.value().network_bytes;
  }
}

TEST(SmaTest, SmaTrafficExceedsMpqTraffic) {
  const Query q = RandomQuery(12, 75);
  StatusOr<SmaResult> sma = SmaOptimize(q, Options(PlanSpace::kLinear, 8));
  MpqOptions mpq_opts;
  mpq_opts.space = PlanSpace::kLinear;
  mpq_opts.num_workers = 8;
  MpqOptimizer mpq(mpq_opts);
  StatusOr<MpqResult> mpq_result = mpq.Optimize(q);
  ASSERT_TRUE(sma.ok() && mpq_result.ok());
  // The paper reports SMA needing orders of magnitude more bytes.
  EXPECT_GT(sma.value().network_bytes,
            mpq_result.value().network_bytes * 10);
}

TEST(SmaTest, MemoSizeIndependentOfWorkers) {
  const Query q = RandomQuery(10, 77);
  for (uint64_t m : {1u, 4u, 16u}) {
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, m));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().max_worker_memo_sets, 1 << 10);
  }
}

TEST(SmaTest, RejectsOversizedQuery) {
  const Query q = RandomQuery(12, 79);
  SmaOptions opts = Options(PlanSpace::kLinear, 2);
  opts.max_tables = 10;
  EXPECT_EQ(SmaOptimize(q, opts).status().code(), StatusCode::kOutOfRange);
}

TEST(SmaTest, AlphaBelowOneOrNaNIsInvalidArgument) {
  const Query q = RandomQuery(6, 91);
  for (double alpha : {0.5, std::numeric_limits<double>::quiet_NaN()}) {
    SmaOptions opts = Options(PlanSpace::kLinear, 2);
    opts.objective = Objective::kTimeAndBuffer;
    opts.alpha = alpha;
    EXPECT_EQ(SmaOptimize(q, opts).status().code(),
              StatusCode::kInvalidArgument)
        << alpha;
  }
}

TEST(SmaTest, CorruptedOpenRequestIsCorruption) {
  // A replica is built only from an open request it can account for
  // byte by byte: tags above 1, a time+buffer alpha below 1 (or NaN) and
  // bytes after the options all fail.
  const Query q = RandomQuery(4, 92);
  SmaNodeOptions options;
  options.objective = Objective::kTimeAndBuffer;
  options.alpha = 1.5;
  const std::vector<uint8_t> request = SmaNode::BuildOpenRequest(q, options);
  ASSERT_TRUE(SmaNode::FromOpenRequest(request).ok());
  const auto code = [](const std::vector<uint8_t>& bytes) {
    return SmaNode::FromOpenRequest(bytes).status().code();
  };
  ByteWriter query_bytes;
  q.Serialize(&query_bytes);
  const size_t space_at = query_bytes.size();  // the objective tag follows

  std::vector<uint8_t> bad = request;
  bad[space_at] = 7;
  EXPECT_EQ(code(bad), StatusCode::kCorruption);
  bad = request;
  bad[space_at + 1] = 9;
  EXPECT_EQ(code(bad), StatusCode::kCorruption);
  bad = request;
  bad.push_back(0);
  EXPECT_EQ(code(bad), StatusCode::kCorruption);
  bad[space_at] = 7;
  bad[space_at + 1] = 9;
  bad.push_back(0);
  EXPECT_EQ(code(bad), StatusCode::kCorruption);
  for (double alpha : {0.5, std::numeric_limits<double>::quiet_NaN()}) {
    options.alpha = alpha;
    EXPECT_EQ(code(SmaNode::BuildOpenRequest(q, options)),
              StatusCode::kCorruption)
        << alpha;
  }
}

TEST(SmaTest, SingleTableQuery) {
  const Query q = RandomQuery(1, 81);
  StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().arena.node(r.value().best[0]).IsScan());
  EXPECT_EQ(r.value().rounds, 0);
}

TEST(SmaTest, BroadcastPlanCountBeyondThePayloadIsCorruption) {
  // A 24-byte broadcast naming 2^32 - 1 frontier plans for one set must
  // be rejected before the frontier is sized, not throw bad_alloc.
  SmaNodeOptions options;
  options.objective = Objective::kTimeAndBuffer;
  SmaNode node(RandomQuery(4, 84), options);
  ByteWriter writer;
  writer.WriteU32(1);           // one entry
  writer.WriteU64(0b11);        // set {0, 1}
  writer.WriteDouble(10.0);     // cardinality
  writer.WriteU32(0xFFFFFFFF);  // frontier plans
  const std::vector<uint8_t> payload = writer.Release();
  ASSERT_EQ(payload.size(), 24u);
  EXPECT_EQ(node.ApplyBroadcast(payload).code(), StatusCode::kCorruption);
}

/// A one-entry scalar broadcast: `set` joined from (left, set \ left).
std::vector<uint8_t> ScalarBroadcast(uint64_t set, JoinAlgorithm alg,
                                     uint64_t left) {
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU64(set);
  writer.WriteU8(static_cast<uint8_t>(alg));
  writer.WriteU64(left);
  writer.WriteDouble(100.0);  // cardinality
  writer.WriteDouble(500.0);  // cost
  return writer.Release();
}

/// A one-entry multi-objective broadcast of `num_plans` hash joins of
/// (left, set \ left), each with the given child indices.
std::vector<uint8_t> ParetoBroadcast(uint64_t set, uint32_t num_plans,
                                     uint64_t left, uint32_t left_idx,
                                     uint32_t right_idx) {
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU64(set);
  writer.WriteDouble(100.0);  // cardinality
  writer.WriteU32(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    CostVector::TimeBuffer(500.0, 100.0).Serialize(&writer);
    writer.WriteU64(left);
    writer.WriteU32(left_idx);
    writer.WriteU32(right_idx);
    writer.WriteU8(static_cast<uint8_t>(JoinAlgorithm::kHashJoin));
  }
  return writer.Release();
}

/// Applies `payloads` in order to a fresh four-table replica; returns the
/// first failure's code.
StatusCode ApplyToFreshNode(PlanSpace space, Objective objective,
                            const std::vector<std::vector<uint8_t>>& payloads) {
  SmaNodeOptions options;
  options.space = space;
  options.objective = objective;
  SmaNode node(RandomQuery(4, 85), options);
  for (const std::vector<uint8_t>& payload : payloads) {
    const Status s = node.ApplyBroadcast(payload);
    if (!s.ok()) return s.code();
  }
  return StatusCode::kOk;
}

TEST(SmaTest, BroadcastInstallsOnlyJoinsOfInstalledSets) {
  // The master applies broadcasts built from the workers' chunk replies,
  // so a bad reply must fail the apply, not the plan extraction after it.
  // Each case breaks one rule; the well-formed entries beside them apply.
  constexpr PlanSpace kLinear = PlanSpace::kLinear;
  constexpr PlanSpace kBushy = PlanSpace::kBushy;
  constexpr Objective kTime = Objective::kTime;
  constexpr Objective kMo = Objective::kTimeAndBuffer;
  constexpr JoinAlgorithm kHj = JoinAlgorithm::kHashJoin;
  const std::vector<uint8_t> t01 = ScalarBroadcast(0b0011, kHj, 0b0001);
  const std::vector<uint8_t> t23 = ScalarBroadcast(0b1100, kHj, 0b0100);
  // The left operand is a non-empty proper subset of the set: {T0, T1}
  // joined from {T0, T1} would send extraction into endless recursion.
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime,
                             {ScalarBroadcast(0b0011, kHj, 0b0011)}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kBushy, kTime, {ScalarBroadcast(0b0011, kHj, 0)}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kBushy, kTime,
                             {ScalarBroadcast(0b0011, kHj, 0b0101)}),
            StatusCode::kCorruption);
  // The algorithm is a join.
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime,
                             {ScalarBroadcast(0b0011, JoinAlgorithm::kScan,
                                              0b0001)}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime,
                             {ScalarBroadcast(0b0011,
                                              static_cast<JoinAlgorithm>(9),
                                              0b0001)}),
            StatusCode::kCorruption);
  // In linear space the right operand is one table.
  const std::vector<uint8_t> t0123 = ScalarBroadcast(0b1111, kHj, 0b0011);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime, {t01, t23, t0123}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kBushy, kTime, {t01, t23, t0123}),
            StatusCode::kOk);
  // Both operands are installed: a finite cost for scalar entries...
  const std::vector<uint8_t> t012 = ScalarBroadcast(0b0111, kHj, 0b0011);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime, {t012}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime, {t01, t012}), StatusCode::kOk);
  // ... and child indices within the operands' frontiers for Pareto ones
  // (a scan's frontier has one plan).
  EXPECT_EQ(ApplyToFreshNode(kLinear, kMo, {ParetoBroadcast(0b11, 1, 1, 1, 0)}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kMo, {ParetoBroadcast(0b11, 1, 1, 0, 1)}),
            StatusCode::kCorruption);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kMo, {ParetoBroadcast(0b11, 2, 1, 0, 0)}),
            StatusCode::kOk);
  // A frontier has at least one plan.
  EXPECT_EQ(ApplyToFreshNode(kLinear, kMo, {ParetoBroadcast(0b11, 0, 1, 0, 0)}),
            StatusCode::kCorruption);
  // A set is installed once, so no later entry shrinks a frontier that an
  // installed plan indexes.
  EXPECT_EQ(ApplyToFreshNode(kLinear, kTime, {t01, t01}),
            StatusCode::kCorruption);
  const std::vector<uint8_t> mo01 = ParetoBroadcast(0b11, 1, 1, 0, 0);
  EXPECT_EQ(ApplyToFreshNode(kLinear, kMo, {mo01, mo01}),
            StatusCode::kCorruption);
}

TEST(SmaTest, ExtractionWithoutTheFullQueryIsCorruption) {
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    SmaNodeOptions options;
    options.objective = objective;
    SmaNode node(RandomQuery(4, 86), options);
    PlanArena arena;
    std::vector<PlanId> best;
    EXPECT_EQ(node.BuildBest(&arena, &best).code(), StatusCode::kCorruption);
    EXPECT_TRUE(best.empty());
  }
}

TEST(SmaTest, ChunkOfASetWithoutInstalledSubplansIsCorruption) {
  // {T0, T1, T2} on a fresh replica: none of its two-table operands is
  // installed, so the step fails rather than return a plan over them.
  ByteWriter chunk;
  chunk.WriteU32(1);
  chunk.WriteU64(0b0111);
  const std::vector<uint8_t> request = chunk.Release();
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    SmaNodeOptions options;
    options.objective = objective;
    SmaNode node(RandomQuery(4, 85), options);
    EXPECT_EQ(node.ComputeChunk(request.data(), request.size())
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
  // Once {T0, T1} is installed, the split {T0, T1} x T2 is chosen.
  SmaNode node(RandomQuery(4, 85), SmaNodeOptions());
  ASSERT_TRUE(node.ApplyBroadcast(ScalarBroadcast(
                                      0b0011, JoinAlgorithm::kHashJoin, 0b0001))
                  .ok());
  EXPECT_TRUE(node.ComputeChunk(request.data(), request.size()).ok());
}

TEST(SmaTest, OverflowingCostsGiveAnInfinitePlan) {
  // Every plan of the full join costs +inf. SMA must still return one
  // over all four tables, as OptimizeSerial does: a set installed with a
  // +inf cost is installed all the same.
  const Query q = OverflowingChainQuery();
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    DpConfig config;
    config.space = space;
    StatusOr<DpResult> serial = OptimizeSerial(q, config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    StatusOr<SmaResult> result = SmaOptimize(q, Options(space, 2));
    ASSERT_TRUE(result.ok())
        << PlanSpaceName(space) << ": " << result.status().ToString();
    ASSERT_EQ(result.value().best.size(), 1u);
    const PlanNode& plan = result.value().arena.node(result.value().best[0]);
    EXPECT_EQ(plan.tables, q.all_tables()) << PlanSpaceName(space);
    EXPECT_EQ(plan.cost.time(), std::numeric_limits<double>::infinity())
        << PlanSpaceName(space);
    EXPECT_EQ(plan.cost.time(),
              serial.value().arena.node(serial.value().best[0]).cost.time())
        << PlanSpaceName(space);
  }
}

TEST(SmaTest, MultiObjectiveFrontierCoversSerial) {
  const Query q = RandomQuery(7, 83);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1.0;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());

  SmaOptions opts = Options(PlanSpace::kLinear, 4);
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  StatusOr<SmaResult> result = SmaOptimize(q, opts);
  ASSERT_TRUE(result.ok());

  std::vector<CostVector> sma_frontier, serial_frontier;
  for (PlanId id : result.value().best) {
    sma_frontier.push_back(result.value().arena.node(id).cost);
  }
  for (PlanId id : serial.value().best) {
    serial_frontier.push_back(serial.value().arena.node(id).cost);
  }
  EXPECT_TRUE(AlphaCovers(sma_frontier, serial_frontier, 1.0 + 1e-12));
  EXPECT_TRUE(AlphaCovers(serial_frontier, sma_frontier, 1.0 + 1e-12));
}

TEST(SmaTest, ResultsMatchPinnedDigests) {
  // The plan bytes, network bytes, messages and rounds of both
  // objectives in both spaces, digested bit by bit, and once more with
  // the plans' structure in place of their bytes (see
  // tests/plan_digest.h).
  struct Pin {
    PlanSpace space;
    Objective objective;
    uint64_t seed;
    uint64_t digest;
    uint64_t shape_digest;
  };
  const Pin pins[] = {
      {PlanSpace::kLinear, Objective::kTime, 311, 0xc3951b39d06bed88,
       0xd2ee9e082f149cea},
      {PlanSpace::kBushy, Objective::kTime, 312, 0xbf08cbadb5ea49bc,
       0x28f4cbf1455b324f},
      {PlanSpace::kLinear, Objective::kTimeAndBuffer, 313, 0x1d40358b87afdf56,
       0x9043ae6d019d820d},
      {PlanSpace::kBushy, Objective::kTimeAndBuffer, 314, 0x4a841ea49bcc9fed,
       0xd229781dda3616a8},
  };
  for (const Pin& pin : pins) {
    const Query q = RandomQuery(9, pin.seed);
    Fnv64 h;
    Fnv64 shape;
    for (uint64_t m : {1u, 3u, 8u}) {
      SmaOptions opts = Options(pin.space, m);
      opts.objective = pin.objective;
      opts.alpha = 1.5;
      StatusOr<SmaResult> result = SmaOptimize(q, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const SmaResult& r = result.value();
      for (uint8_t byte : PlanBytes(r)) h.Add(byte);
      shape.Add(static_cast<uint64_t>(r.best.size()));
      for (PlanId id : r.best) {
        DigestPlan(r.arena, id, &h);
        DigestPlanShape(r.arena, id, &shape);
      }
      for (Fnv64* d : {&h, &shape}) {
        d->Add(r.network_bytes);
        d->Add(r.network_messages);
        d->Add(r.rounds);
      }
    }
    const std::string name =
        std::string(PlanSpaceName(pin.space)) +
        " objective=" + std::to_string(static_cast<int>(pin.objective)) +
        " seed=" + std::to_string(pin.seed);
    EXPECT_EQ(h.value(), pin.digest)
        << name << ": digest 0x" << std::hex << h.value();
    EXPECT_EQ(shape.value(), pin.shape_digest)
        << name << ": shape digest 0x" << std::hex << shape.value();
  }
}

}  // namespace
}  // namespace mpqopt
