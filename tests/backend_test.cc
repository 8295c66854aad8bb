// Copyright 2026 mpqopt authors.
//
// Backend-parameterized wire-contract tests: every ExecutionBackend must
// produce byte-identical worker responses and consistent TrafficStats for
// the same tasks — the property that makes the hosting choice (the
// persistent in-process pool or remote RPC workers) invisible to the
// optimizers. The kRpc parameter self-hosts: the fixture spawns real
// mpqopt_worker subprocesses on loopback, so the same assertions run over
// actual sockets. The round accounting, the modeled-time formula and the
// pool's own scheduling contracts are tested directly below the
// parameterized suite.

#include "cluster/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "catalog/generator.h"
#include "cluster/async_batch_backend.h"
#include "cluster/task_registry.h"
#include "mpq/mpq.h"
#include "plan/plan_serde.h"
#include "sma/sma.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

Query MakeQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

/// Echo through the registered entry point, so the task is shippable to a
/// remote worker as well as runnable in-process.
WorkerTask Echo() { return WorkerTask(&EchoTaskMain); }

class BackendTest : public ::testing::TestWithParam<BackendKind> {
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

TEST_P(BackendTest, EchoRoundTrip) {
  auto backend = MakeTestBackend();
  EXPECT_STREQ(backend->name(), BackendKindName(GetParam()));
  std::vector<WorkerTask> tasks(3, Echo());
  std::vector<std::vector<uint8_t>> requests = {{1, 2}, {}, {7, 7, 7}};
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round.value().responses.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(round.value().responses[i], requests[i]);
  }
}

TEST_P(BackendTest, ErrorPropagates) {
  auto backend = MakeTestBackend();
  // FailTaskMain fails with the request bytes as the message — a
  // registered entry point, so the error path is exercised remotely too.
  const std::string message = "bad payload";
  StatusOr<RoundResult> round = backend->RunRound(
      {Echo(), WorkerTask(&FailTaskMain)},
      {{1}, std::vector<uint8_t>(message.begin(), message.end())});
  EXPECT_FALSE(round.ok());
  EXPECT_NE(round.status().message().find("bad payload"), std::string::npos);
}

TEST_P(BackendTest, EmptyRound) {
  auto backend = MakeTestBackend();
  StatusOr<RoundResult> round = backend->RunRound({}, {});
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round.value().responses.empty());
  EXPECT_EQ(round.value().traffic.bytes_sent, 0u);
  EXPECT_EQ(round.value().traffic.messages, 0u);
}

/// The worker report trailer leads each response with three u64 counters
/// followed by the measured compute seconds (a double at bytes [24, 32)).
/// That one field is genuinely nondeterministic; byte-identity is asserted
/// on everything else.
std::vector<uint8_t> MaskMeasuredSeconds(std::vector<uint8_t> response) {
  for (size_t i = 24; i < 32 && i < response.size(); ++i) response[i] = 0;
  return response;
}

TEST_P(BackendTest, WorkerMainWireContractIsByteIdentical) {
  // MPQ's worker entry point through the backend must return exactly the
  // bytes a direct in-process call produces, for every partition.
  const Query q = MakeQuery(8, 417);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;

  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> reference;
  for (uint64_t part = 0; part < opts.num_workers; ++part) {
    requests.push_back(MpqOptimizer::BuildRequest(q, part, opts));
    StatusOr<std::vector<uint8_t>> direct =
        MpqOptimizer::WorkerMain(requests.back());
    ASSERT_TRUE(direct.ok());
    reference.push_back(std::move(direct).value());
  }

  auto backend = MakeTestBackend();
  std::vector<WorkerTask> tasks(opts.num_workers,
                                WorkerTask(&MpqOptimizer::WorkerMain));
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  for (uint64_t part = 0; part < opts.num_workers; ++part) {
    EXPECT_EQ(MaskMeasuredSeconds(round.value().responses[part]),
              MaskMeasuredSeconds(reference[part]))
        << "partition " << part << " on " << backend->name();
    // Payload sizes (and hence byte accounting) match exactly.
    ASSERT_EQ(round.value().responses[part].size(), reference[part].size());
  }

  // Traffic accounting must be derivable from the payloads alone:
  // request + response bytes, two messages per worker.
  uint64_t expect_bytes = 0;
  for (uint64_t part = 0; part < opts.num_workers; ++part) {
    expect_bytes += requests[part].size() + reference[part].size();
  }
  EXPECT_EQ(round.value().traffic.bytes_sent, expect_bytes);
  EXPECT_EQ(round.value().traffic.messages, 2 * opts.num_workers);
}

TEST_P(BackendTest, SimulatedTimeIncludesPerTaskSetup) {
  NetworkModel model;
  model.task_setup_s = 0.25;
  model.latency_s = 0;
  model.bandwidth_bytes_per_s = 1e18;
  auto backend = MakeTestBackend();
  std::vector<WorkerTask> tasks(4, Echo());
  std::vector<std::vector<uint8_t>> requests(4, std::vector<uint8_t>{1});
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok());
  const double modeled =
      ModeledRoundSeconds(model, requests, round.value().responses,
                          round.value().compute_seconds);
  EXPECT_GE(modeled, 4 * 0.25);
  EXPECT_LT(modeled, 4 * 0.25 + 1.0);
}


TEST_P(BackendTest, MpqOptimizeMatchesDefaultBackend) {
  const Query q = MakeQuery(9, 418);
  MpqOptions base;
  base.space = PlanSpace::kLinear;
  base.num_workers = 8;
  // The backend only hosts the tasks: the modeled cluster time comes from
  // the optimizer's own NetworkModel (1 s of dispatch per task here).
  base.network.task_setup_s = 1.0;
  MpqOptimizer reference(base);
  StatusOr<MpqResult> a = reference.Optimize(q);

  MpqOptions with_backend = base;
  with_backend.backend = MakeTestBackend();
  MpqOptimizer optimizer(with_backend);
  StatusOr<MpqResult> b = optimizer.Optimize(q);

  ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
  EXPECT_DOUBLE_EQ(a.value().arena.node(a.value().best[0]).cost.time(),
                   b.value().arena.node(b.value().best[0]).cost.time());
  EXPECT_EQ(a.value().network_bytes, b.value().network_bytes);
  EXPECT_EQ(a.value().network_messages, b.value().network_messages);
  EXPECT_EQ(a.value().max_worker_memo_sets, b.value().max_worker_memo_sets);
  EXPECT_GE(b.value().simulated_seconds, 8 * 1.0);
  EXPECT_NEAR(b.value().simulated_seconds, a.value().simulated_seconds, 0.5);
}

TEST_P(BackendTest, OptimizeMatchesDirectFinalizeOnEveryBackend) {
  // The master's Phase 3 runs on the calling thread whatever hosts the
  // workers: over every backend (and both objectives) Optimize must pick
  // byte-identical plans to FinalizeResponses over the same responses
  // computed in-process, with the same counters.
  const Query q = MakeQuery(9, 420);
  for (Objective objective : {Objective::kTime, Objective::kTimeAndBuffer}) {
    MpqOptions opts;
    opts.space = PlanSpace::kLinear;
    opts.num_workers = 8;
    opts.objective = objective;
    opts.alpha = 1.2;
    opts.backend = MakeTestBackend();

    std::vector<std::vector<uint8_t>> responses;
    for (const std::vector<uint8_t>& request :
         MpqOptimizer::BuildRequests(q, opts)) {
      StatusOr<std::vector<uint8_t>> response =
          MpqOptimizer::WorkerMain(request);
      ASSERT_TRUE(response.ok());
      responses.push_back(std::move(response).value());
    }
    StatusOr<MpqResult> direct =
        MpqOptimizer::FinalizeResponses(responses, opts);
    MpqOptimizer optimizer(opts);
    StatusOr<MpqResult> hosted = optimizer.Optimize(q);
    ASSERT_TRUE(direct.ok() && hosted.ok()) << direct.status().ToString()
                                            << " / "
                                            << hosted.status().ToString();

    ByteWriter plans_direct;
    ByteWriter plans_hosted;
    SerializePlanSet(direct.value().arena, direct.value().best,
                     &plans_direct);
    SerializePlanSet(hosted.value().arena, hosted.value().best,
                     &plans_hosted);
    EXPECT_EQ(plans_hosted.buffer(), plans_direct.buffer());
    EXPECT_EQ(hosted.value().worker_memo_sets,
              direct.value().worker_memo_sets);
    EXPECT_EQ(hosted.value().total_splits, direct.value().total_splits);
    EXPECT_EQ(hosted.value().total_plans_costed,
              direct.value().total_plans_costed);
  }
}

TEST_P(BackendTest, SmaRunsOnEveryBackend) {
  // SMA's per-level computation runs through the session protocol
  // (cluster/session/), so its per-node memo replicas follow the
  // backend: in-process state for the local kinds, remote replicas in
  // mpqopt_worker processes for rpc — no skip, the result and byte
  // counts must not depend on the hosting choice.
  const Query q = MakeQuery(8, 419);
  SmaOptions base;
  base.space = PlanSpace::kLinear;
  base.num_workers = 3;
  StatusOr<SmaResult> a = SmaOptimize(q, base);

  SmaOptions with_backend = base;
  with_backend.backend = MakeTestBackend();
  StatusOr<SmaResult> b = SmaOptimize(q, with_backend);

  ASSERT_TRUE(a.ok() && b.ok()) << b.status().ToString();
  EXPECT_DOUBLE_EQ(a.value().arena.node(a.value().best[0]).cost.time(),
                   b.value().arena.node(b.value().best[0]).cost.time());
  EXPECT_EQ(a.value().network_bytes, b.value().network_bytes);
  EXPECT_EQ(a.value().network_messages, b.value().network_messages);
  EXPECT_EQ(a.value().rounds, b.value().rounds);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(BackendFactoryTest, ParseBackendKind) {
  EXPECT_EQ(ParseBackendKind("async").value(), BackendKind::kAsyncBatch);
  EXPECT_EQ(ParseBackendKind("rpc").value(), BackendKind::kRpc);
  EXPECT_EQ(BackendKindList(), "async|rpc");
  for (const char* gone : {"thread", "process", "processes", "spark"}) {
    const StatusOr<BackendKind> unknown = ParseBackendKind(gone);
    ASSERT_FALSE(unknown.ok()) << gone;
    // The error enumerates every valid name.
    for (const char* name : {"async", "rpc"}) {
      EXPECT_NE(unknown.status().message().find(name), std::string::npos)
          << name;
    }
  }
}

/// Pool threads of an async backend, or -1 for any other kind.
int PoolSize(const ExecutionBackend& backend) {
  const auto* pool = dynamic_cast<const AsyncBatchBackend*>(&backend);
  return pool != nullptr ? pool->pool_size() : -1;
}

TEST(BackendFactoryTest, PoolSizeZeroLeavesTheSubmitterACore) {
  const auto pool_size = [](int max_threads) {
    BackendOptions options;
    options.max_threads = max_threads;
    return PoolSize(*MakeBackend(BackendKind::kAsyncBatch, options).value());
  };
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(pool_size(0), std::max(cores - 1, 0));
  EXPECT_EQ(pool_size(3), 3);  // an explicit size is taken as given
}

TEST(BackendFactoryTest, DefaultBackendIsOneProcessWidePool) {
  const std::shared_ptr<ExecutionBackend> pool = DefaultBackend();
  EXPECT_EQ(DefaultBackend().get(), pool.get());
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(PoolSize(*pool), std::max(cores - 1, 0));
}

TEST(BackendFactoryTest, RpcWithoutEndpointsIsACleanError) {
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, BackendOptions{});
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
}

TEST(AccountRoundTest, SimulatedTimeIsTheSlowestWorkerNotTheSum) {
  NetworkModel model;
  model.task_setup_s = 0.001;
  model.latency_s = 0.01;
  model.bandwidth_bytes_per_s = 1000;
  const std::vector<std::vector<uint8_t>> requests = {
      std::vector<uint8_t>(4), {}, std::vector<uint8_t>(10)};
  RoundResult result;
  result.responses = {{1, 2}, {3}, {}};
  result.compute_seconds = {0.5, 2.0, 1.0};
  AccountRound({4, 0, 10}, &result);
  // Task 1 is the slowest worker: modeled time is the dispatch of all
  // three tasks plus that worker's transfers and compute, not the sum.
  const double modeled = ModeledRoundSeconds(
      model, requests, result.responses, result.compute_seconds);
  const double slowest =
      model.TransferTime(0) + 2.0 + model.TransferTime(1);
  EXPECT_DOUBLE_EQ(modeled, 3 * 0.001 + slowest);
  EXPECT_LT(modeled, 0.5 + 2.0 + 1.0);
  EXPECT_EQ(result.traffic.bytes_sent, 4u + 2 + 0 + 1 + 10 + 0);
  EXPECT_EQ(result.traffic.messages, 6u);
}

TEST(NetworkModelTest, TransferTimeFormula) {
  NetworkModel model;
  model.latency_s = 0.001;
  model.bandwidth_bytes_per_s = 1000;
  EXPECT_DOUBLE_EQ(model.TransferTime(500), 0.001 + 0.5);
  EXPECT_DOUBLE_EQ(model.TransferTime(0), 0.001);
}

TEST(TrafficStatsTest, RecordAndMerge) {
  TrafficStats a;
  a.Record(100);
  a.Record(50);
  TrafficStats b;
  b.Record(10);
  a.Merge(b);
  EXPECT_EQ(a.bytes_sent, 160u);
  EXPECT_EQ(a.messages, 3u);
}

TEST(AsyncBatchBackendTest, ComputeSecondsMeasuredPerTask) {
  AsyncBatchBackend backend(1);
  const WorkerTask sleeper =
      [](const std::vector<uint8_t>& r) -> StatusOr<std::vector<uint8_t>> {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return r;
  };
  StatusOr<RoundResult> round =
      backend.RunRound({Echo(), sleeper}, {{1}, {1}});
  ASSERT_TRUE(round.ok());
  EXPECT_LT(round.value().compute_seconds[0], 0.01);
  EXPECT_GE(round.value().compute_seconds[1], 0.019);
}

TEST(AsyncBatchBackendTest, ZeroThreadPoolRunsEveryTaskOnTheSubmitter) {
  // SMA's default backend relies on this: with no pool threads the
  // submitting thread runs the round's tasks itself, in task order.
  AsyncBatchBackend backend(0);
  EXPECT_EQ(backend.pool_size(), 0);
  const std::thread::id submitter = std::this_thread::get_id();
  std::mutex mutex;
  std::vector<uint8_t> order;
  bool elsewhere = false;
  const WorkerTask record =
      [&](const std::vector<uint8_t>& r) -> StatusOr<std::vector<uint8_t>> {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(r[0]);
    if (std::this_thread::get_id() != submitter) elsewhere = true;
    return r;
  };
  std::vector<std::vector<uint8_t>> requests;
  for (uint8_t t = 0; t < 8; ++t) requests.push_back({t});
  for (int round = 0; round < 3; ++round) {
    order.clear();
    StatusOr<RoundResult> r =
        backend.RunRound(std::vector<WorkerTask>(8, record), requests);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().responses, requests);
    EXPECT_EQ(order, (std::vector<uint8_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  }
  EXPECT_FALSE(elsewhere);
}

TEST(AsyncBatchBackendTest, PersistentPoolSurvivesManyRounds) {
  AsyncBatchBackend backend(2);
  EXPECT_EQ(backend.pool_size(), 2);
  std::vector<WorkerTask> tasks(4, Echo());
  std::vector<std::vector<uint8_t>> requests(4, std::vector<uint8_t>{5});
  for (int round = 0; round < 100; ++round) {
    StatusOr<RoundResult> r = backend.RunRound(tasks, requests);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().responses.size(), 4u);
    EXPECT_EQ(r.value().responses[3], requests[3]);
  }
}

TEST(AsyncBatchBackendTest, ConcurrentRoundsFromManySubmitters) {
  // Many threads push rounds into the same pool simultaneously; each
  // round's responses must match its own requests (no cross-talk).
  AsyncBatchBackend backend(3);
  constexpr int kSubmitters = 8;
  constexpr int kRoundsEach = 20;
  std::vector<std::thread> submitters;
  std::vector<int> failures(kSubmitters, 0);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&backend, &failures, s]() {
      for (int r = 0; r < kRoundsEach; ++r) {
        std::vector<WorkerTask> tasks(5, Echo());
        std::vector<std::vector<uint8_t>> requests;
        for (int t = 0; t < 5; ++t) {
          requests.push_back({static_cast<uint8_t>(s), static_cast<uint8_t>(r),
                              static_cast<uint8_t>(t)});
        }
        StatusOr<RoundResult> round = backend.RunRound(tasks, requests);
        if (!round.ok() || round.value().responses != requests) {
          ++failures[s];
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(failures[s], 0) << "submitter " << s;
  }
}

TEST(AsyncBatchBackendTest, ErrorInOneRoundDoesNotPoisonOthers) {
  AsyncBatchBackend backend(2);
  const WorkerTask failing =
      [](const std::vector<uint8_t>&) -> StatusOr<std::vector<uint8_t>> {
    return Status::Internal("boom");
  };
  StatusOr<RoundResult> bad = backend.RunRound({failing}, {{1}});
  EXPECT_FALSE(bad.ok());
  StatusOr<RoundResult> good = backend.RunRound({Echo()}, {{2}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().responses[0], std::vector<uint8_t>{2});
}

}  // namespace
}  // namespace mpqopt
