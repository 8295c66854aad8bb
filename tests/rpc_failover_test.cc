// Copyright 2026 mpqopt authors.
//
// Failover tests of the cluster supervision subsystem
// (cluster/supervisor/worker_supervisor.h + RpcBackend round recovery):
// workers are SIGKILLed mid-round, crashed deterministically via the
// --chaos-kill-after axis, restarted on their old ports, and drained
// with SIGTERM — and in every survivable scenario the rounds must still
// complete with results byte-identical to a failure-free run, with the
// recovery visible in the health/ServiceStats counters instead of in
// round errors.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "catalog/generator.h"
#include "cluster/rpc_backend.h"
#include "cluster/session/session.h"
#include "cluster/session/stateful_task.h"
#include "cluster/supervisor/worker_supervisor.h"
#include "cluster/task_registry.h"
#include "common/serialize.h"
#include "mpq/mpq.h"
#include "plan/plan_serde.h"
#include "service/optimizer_service.h"
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

/// Fast-recovery supervision knobs so the tests spend milliseconds, not
/// seconds, in backoff windows.
BackendOptions FastFailoverOptions(const RpcWorkerFarm& farm,
                                   int retries = 2) {
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  options.supervision.max_redials = retries;
  options.supervision.backoff_initial_ms = 20;
  options.supervision.backoff_max_ms = 200;
  return options;
}

std::shared_ptr<ExecutionBackend> ConnectFarm(const RpcWorkerFarm& farm,
                                              int retries = 2) {
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, FastFailoverOptions(farm, retries));
  MPQOPT_CHECK(backend.ok());
  return std::move(backend).value();
}

/// The canonical wire bytes of a result's winning plan(s) — the
/// "byte-identical plans" comparison of the acceptance criteria.
std::vector<uint8_t> PlanBytes(const MpqResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

// (The backoff/redial-budget arithmetic is unit-tested directly, without
// sockets, in tests/supervisor_test.cc.)

TEST(WorkerSupervisorTest, PingTaskIsRegistered) {
  EXPECT_EQ(ResolveTaskKind(WorkerTask(&PingTaskMain)),
            RpcTaskKind::kPingTask);
  const std::vector<uint8_t> nonce = {1, 2, 3, 4};
  StatusOr<std::vector<uint8_t>> reply =
      TaskForKind(RpcTaskKind::kPingTask)(nonce);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value(), nonce);
}

TEST(RpcFailoverTest, KilledWorkerMidRoundIsRescatteredToSurvivors) {
  RpcWorkerFarm farm;
  farm.Start(4);
  auto backend = ConnectFarm(farm);
  // 8 sleep-echo tasks of 300 ms each: two sequential tasks per worker,
  // so the round is guaranteed to still be in flight when worker 0 dies
  // at ~100 ms.
  std::vector<WorkerTask> tasks(8, WorkerTask(&SleepEchoTaskMain));
  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> expected;
  for (uint8_t i = 0; i < 8; ++i) {
    ByteWriter writer;
    writer.WriteU32(300);
    std::vector<uint8_t> request = writer.Release();
    request.push_back(i);
    requests.push_back(request);
    expected.push_back({i});
  }
  std::thread killer([&farm]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    farm.Kill(0);
  });
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  killer.join();
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, expected);
  const BackendHealth health = backend->health();
  EXPECT_GE(health.tasks_rescattered, 1u);
  EXPECT_EQ(health.rounds_recovered, 1u);
  EXPECT_GE(health.reconnect_attempts, 1u);
  EXPECT_EQ(health.CountWorkers(WorkerHealth::kHealthy), 3u);
}

// Frames from three rounds are queued on worker 0 (one running, two
// waiting behind it) when it is SIGKILLed: every one of them fails with
// the connection, each round re-scatters its task to the survivor and
// returns its echoed bytes. After a restart on the same port the worker
// is redialed and serves rounds again.
TEST(RpcFailoverTest, WorkerKilledWithThreeRoundsQueuedOnIt) {
  RpcWorkerFarm farm;
  farm.Start(2);
  // A redial budget that outlasts the outage, so worker 0 stays SUSPECT
  // (not DEAD) until it is back.
  auto backend = ConnectFarm(farm, /*retries=*/50);
  constexpr int kRounds = 3;
  std::vector<std::vector<std::vector<uint8_t>>> requests(kRounds);
  std::vector<std::vector<std::vector<uint8_t>>> expected(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    for (uint8_t t = 0; t < 2; ++t) {
      ByteWriter writer;
      writer.WriteU32(200);
      std::vector<uint8_t> request = writer.Release();
      request.push_back(static_cast<uint8_t>(10 * r + t));
      requests[r].push_back(request);
      expected[r].push_back({static_cast<uint8_t>(10 * r + t)});
    }
  }
  // Each round sends one 200 ms frame to each worker at once; worker 0
  // dies 100 ms in, with all three rounds' frames on its connection.
  std::vector<StatusOr<RoundResult>> rounds(
      kRounds, StatusOr<RoundResult>(Status::Internal("not run")));
  std::vector<std::thread> submitters;
  for (int r = 0; r < kRounds; ++r) {
    submitters.emplace_back([&, r]() {
      rounds[r] = backend->RunRound(
          std::vector<WorkerTask>(2, WorkerTask(&SleepEchoTaskMain)),
          requests[r]);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  farm.Kill(0);
  for (std::thread& t : submitters) t.join();
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(rounds[r].ok()) << "round " << r << ": "
                                << rounds[r].status().ToString();
    EXPECT_EQ(rounds[r].value().responses, expected[r]) << "round " << r;
  }
  BackendHealth health = backend->health();
  EXPECT_EQ(health.rounds_recovered, static_cast<uint64_t>(kRounds));
  EXPECT_GE(health.tasks_rescattered, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(health.workers[0].health, WorkerHealth::kSuspect);
  EXPECT_EQ(health.workers[0].io_failures, 1u);

  farm.Restart(0);
  const std::vector<WorkerTask> echo(2, WorkerTask(&EchoTaskMain));
  const std::vector<std::vector<uint8_t>> bytes = {{1}, {2}};
  for (int r = 0;
       r < 100 && backend->health().workers[0].health != WorkerHealth::kHealthy;
       ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    StatusOr<RoundResult> round = backend->RunRound(echo, bytes);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
  }
  health = backend->health();
  ASSERT_EQ(health.workers[0].health, WorkerHealth::kHealthy);
  EXPECT_GE(health.workers[0].reconnects, 1u);
  // With the other worker gone, the restarted one serves the round.
  farm.Kill(1);
  StatusOr<RoundResult> round = backend->RunRound(echo, bytes);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, bytes);
  EXPECT_EQ(backend->health().workers[0].health, WorkerHealth::kHealthy);
}

// With io_timeout_ms set, a reply that stalls fails the whole connection
// once: the frames queued behind it fail with it within one timeout, not
// one timeout each.
TEST(WorkerSupervisorTest, StalledReplyFailsEveryFrameQueuedBehindIt) {
  RpcWorkerFarm farm;
  farm.Start(1);
  SupervisorOptions options;
  options.io_timeout_ms = 500;
  StatusOr<std::unique_ptr<WorkerSupervisor>> connected =
      WorkerSupervisor::Connect(farm.endpoints(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  WorkerSupervisor& supervisor = *connected.value();
  ByteWriter writer;
  writer.WriteU32(10'000);
  const std::vector<std::vector<uint8_t>> requests = {
      writer.Release(), {2}, {3}};
  const uint8_t kinds[] = {static_cast<uint8_t>(RpcTaskKind::kSleepEchoTask),
                           static_cast<uint8_t>(RpcTaskKind::kEchoTask),
                           static_cast<uint8_t>(RpcTaskKind::kEchoTask)};
  std::vector<uint8_t> responses[3];
  WorkerSupervisor::PendingReply pending[3];
  for (int i = 0; i < 3; ++i) {
    const ConstSpan part{requests[i].data(), requests[i].size()};
    bool worker_failed = true;
    ASSERT_TRUE(supervisor
                    .Send(0, kinds[i], &part, 1, &responses[i], &pending[i],
                          &worker_failed)
                    .ok());
  }
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_since_start = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // The last frame's owner reads the stalled reply ahead of its own.
  double seconds = 0;
  bool worker_failed = false;
  Status last = supervisor.Receive(&pending[2], &seconds, &worker_failed);
  const double failed_after = seconds_since_start();
  ASSERT_FALSE(last.ok());
  EXPECT_TRUE(worker_failed);
  EXPECT_NE(last.message().find("timed out"), std::string::npos)
      << last.ToString();
  // One 500 ms timeout, not one per frame it had to read through.
  EXPECT_GE(failed_after, 0.4);
  EXPECT_LT(failed_after, 0.95);
  for (int i = 0; i < 2; ++i) {
    worker_failed = false;
    const Status s = supervisor.Receive(&pending[i], &seconds, &worker_failed);
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(worker_failed);
    EXPECT_NE(s.message().find("timed out"), std::string::npos)
        << s.ToString();
  }
  EXPECT_LT(seconds_since_start() - failed_after, 0.25)
      << "a frame queued behind the stalled one waited a timeout of its own";
  EXPECT_EQ(supervisor.health(0), WorkerHealth::kSuspect);
  EXPECT_EQ(supervisor.Snapshot().workers[0].io_failures, 1u);
}

// With io_timeout_ms set, a send the worker stops taking bytes of is
// bounded too: behind a 10 s task, a 16 MiB frame fills the socket
// buffers, no reply comes to read meanwhile, and the send fails after one
// timeout, failing the frame queued ahead of it with the connection.
TEST(WorkerSupervisorTest, StalledWorkerBoundsASendItStopsReading) {
  RpcWorkerFarm farm;
  farm.Start(1);
  SupervisorOptions options;
  options.io_timeout_ms = 500;
  StatusOr<std::unique_ptr<WorkerSupervisor>> connected =
      WorkerSupervisor::Connect(farm.endpoints(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  WorkerSupervisor& supervisor = *connected.value();
  ByteWriter writer;
  writer.WriteU32(10'000);
  const std::vector<uint8_t> sleep = writer.Release();
  const ConstSpan sleep_part{sleep.data(), sleep.size()};
  std::vector<uint8_t> sleep_reply;
  WorkerSupervisor::PendingReply sleeping;
  bool worker_failed = true;
  ASSERT_TRUE(supervisor
                  .Send(0, static_cast<uint8_t>(RpcTaskKind::kSleepEchoTask),
                        &sleep_part, 1, &sleep_reply, &sleeping,
                        &worker_failed)
                  .ok());
  const std::vector<uint8_t> big(size_t{16} << 20, 7);
  const ConstSpan big_part{big.data(), big.size()};
  std::vector<uint8_t> big_reply;
  WorkerSupervisor::PendingReply stalled;
  const auto start = std::chrono::steady_clock::now();
  worker_failed = false;
  const Status sent = supervisor.Send(
      0, static_cast<uint8_t>(RpcTaskKind::kEchoTask), &big_part, 1,
      &big_reply, &stalled, &worker_failed);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(worker_failed);
  EXPECT_NE(sent.message().find("send timed out"), std::string::npos)
      << sent.ToString();
  EXPECT_GE(elapsed, 0.4);
  EXPECT_LT(elapsed, 0.95);
  double seconds = 0;
  worker_failed = false;
  EXPECT_FALSE(supervisor.Receive(&sleeping, &seconds, &worker_failed).ok());
  EXPECT_TRUE(worker_failed);
  EXPECT_EQ(supervisor.health(0), WorkerHealth::kSuspect);
}

// The acceptance scenario: an OptimizerService over N=4 remote workers,
// one of which crashes mid-round (deterministically, via the chaos
// axis); every query must still complete, the served plans must be
// byte-identical to a failure-free in-process run, and ServiceStats must
// report the reconnect attempts and re-scattered tasks.
TEST(RpcFailoverTest, ServicePlansAreByteIdenticalUnderWorkerCrash) {
  RpcWorkerFarm farm;
  farm.Start(3);
  // Every round scatters 8 tasks over all 4 workers, so each worker gets
  // its 2 tasks in one frame per query. The fourth worker serves 3
  // frames, then crashes WITHOUT replying on the 4th — in the middle of
  // the 4th query's round, while the other workers' frames of that round
  // are in flight.
  farm.StartChaos(3);

  ServiceOptions service_opts;
  service_opts.backend = ConnectFarm(farm);
  service_opts.dispatcher_threads = 2;
  OptimizerService service(service_opts);

  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;

  std::vector<Query> queries;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    queries.push_back(MakeQuery(7, 400 + seed));
  }
  const BatchReport report = service.OptimizeBatch(queries, opts);
  ASSERT_EQ(report.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(report.results[i].ok())
        << "query " << i << ": " << report.results[i].status().ToString();
    // Reference: the same query on the default in-process backend — the
    // conformance suite guarantees backends agree, so any divergence
    // here is recovery corrupting a round.
    MpqOptimizer reference(opts);
    StatusOr<MpqResult> direct = reference.Optimize(queries[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(PlanBytes(report.results[i].value()),
              PlanBytes(direct.value()))
        << "query " << i << " plan bytes diverged after failover";
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_completed, queries.size());
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_GE(stats.backend.tasks_rescattered, 1u);
  EXPECT_GE(stats.backend.rounds_recovered, 1u);
  EXPECT_GE(stats.backend.reconnect_attempts, 1u);
  ASSERT_EQ(stats.backend.workers.size(), 4u);
  // The crashed worker burns its redial budget (nothing listens on its
  // port anymore) and goes DEAD; redials happen lazily in scatter
  // passes once the backoff expires, so drive rounds until the state
  // machine settles. The three survivors stay healthy throughout.
  auto backend = service.shared_backend();
  for (int r = 0;
       r < 100 && backend->health().CountWorkers(WorkerHealth::kDead) == 0;
       ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(
        backend->RunRound({WorkerTask(&EchoTaskMain)}, {{1}}).ok());
  }
  const ServiceStats settled = service.stats();
  EXPECT_EQ(settled.backend.workers[3].health, WorkerHealth::kDead);
  for (size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(settled.backend.workers[w].health, WorkerHealth::kHealthy)
        << "worker " << w;
  }
  EXPECT_EQ(farm.WaitExit(3), 42);  // the chaos exit code, not a signal
}

TEST(RpcFailoverTest, RestartedWorkerIsReconnectedAndServesAgain) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  std::vector<WorkerTask> tasks(4, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests = {{1}, {2}, {3}, {4}};
  ASSERT_TRUE(backend->RunRound(tasks, requests).ok());

  farm.Kill(0);
  farm.Restart(0);
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, requests);

  const BackendHealth health = backend->health();
  EXPECT_GE(health.reconnects, 1u);
  EXPECT_EQ(health.CountWorkers(WorkerHealth::kHealthy), 2u);
  ASSERT_EQ(health.workers.size(), 2u);
  EXPECT_GE(health.workers[0].reconnects, 1u);
}

TEST(RpcFailoverTest, RedialBudgetExhaustionMarksTheWorkerDead) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm, /*retries=*/1);
  farm.Kill(0);
  std::vector<WorkerTask> tasks(2, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests = {{1}, {2}};
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const BackendHealth health = backend->health();
  EXPECT_EQ(health.CountWorkers(WorkerHealth::kDead), 1u);
  ASSERT_EQ(health.workers.size(), 2u);
  EXPECT_EQ(health.workers[0].health, WorkerHealth::kDead);
  EXPECT_EQ(health.workers[0].redial_failures, 1u);
}

TEST(RpcFailoverTest, AllWorkersDeadFailsTheRoundWithABoundedError) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  farm.Kill(0);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<RoundResult> round =
      backend->RunRound({WorkerTask(&EchoTaskMain)}, {{1}});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(round.ok());
  EXPECT_NE(round.status().message().find("dead"), std::string::npos);
  EXPECT_LT(elapsed, 20.0);
  // Later rounds fail fast too — nothing is dialed once everyone is DEAD.
  EXPECT_FALSE(backend->RunRound({WorkerTask(&EchoTaskMain)}, {{1}}).ok());
}

TEST(RpcFailoverTest, SigtermDrainsTheInFlightTaskAndExitsZero) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  // A 700 ms task is in flight when SIGTERM lands: the worker must
  // execute and ANSWER it before exiting 0 — the round sees no failure
  // at all.
  ByteWriter writer;
  writer.WriteU32(700);
  std::vector<uint8_t> request = writer.Release();
  request.push_back(9);
  StatusOr<RoundResult> round = Status::Internal("round never ran");
  std::thread driver([&backend, &request, &round]() {
    round = backend->RunRound({WorkerTask(&SleepEchoTaskMain)}, {request});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int exit_status = farm.Terminate(0);
  driver.join();
  EXPECT_EQ(exit_status, 0) << "worker did not shut down cleanly";
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses[0], std::vector<uint8_t>{9});
}

/// SMA result bytes, for byte-identity assertions after session
/// recovery.
std::vector<uint8_t> SmaPlanBytes(const SmaResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

// Session failover, SMA end to end: one of two workers crashes
// DETERMINISTICALLY mid-query (chaos axis; session frames count against
// the budget) and never comes back. Its memo replicas must migrate to
// the survivor via re-open + broadcast replay, and the finished plan
// must be byte-identical to a failure-free in-process run.
TEST(RpcFailoverTest, SmaSessionsMigrateOffACrashedWorkerMidQuery) {
  RpcWorkerFarm farm;
  farm.Start(1);
  farm.StartChaos(8);  // dies without replying during the query

  SmaOptions base;
  base.space = PlanSpace::kLinear;
  base.num_workers = 4;
  const Query q = MakeQuery(10, 500);
  StatusOr<SmaResult> reference = SmaOptimize(q, base);
  ASSERT_TRUE(reference.ok());

  SmaOptions over_rpc = base;
  over_rpc.backend = ConnectFarm(farm);
  StatusOr<SmaResult> result = SmaOptimize(q, over_rpc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SmaPlanBytes(result.value()), SmaPlanBytes(reference.value()));
  EXPECT_EQ(result.value().rounds, reference.value().rounds);

  const BackendHealth health = over_rpc.backend->health();
  EXPECT_GE(health.sessions.sessions_recovered, 1u);
  EXPECT_EQ(health.sessions.sessions_failed, 0u);
  EXPECT_EQ(farm.WaitExit(1), 42);  // the chaos exit code, not a signal
}

// Session failover, the unsurvivable case: the ONLY worker is SIGKILLed
// mid-session. The session must fail deterministically (bounded time,
// no hang); after a worker restart, its state is gone (a fresh process
// holds no replicas) and a NEW backend + session serves normally.
TEST(RpcFailoverTest, KilledOnlyWorkerFailsTheSessionAndRestartIsFresh) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm, /*retries=*/1);
  StatusOr<std::unique_ptr<SessionHandle>> session =
      backend->OpenSession(StatefulTaskKind::kAccumulator,
                           {std::vector<uint8_t>{'a'}});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()
                  ->Broadcast({kAccumulatorAppendOp, 'b'})
                  .ok());
  farm.Kill(0);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<RoundResult> round =
      session.value()->Step({{kAccumulatorPeekOp}});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(round.ok());
  EXPECT_LT(elapsed, 20.0);
  // Sticky: the session stays failed even if the worker comes back.
  farm.Restart(0);
  EXPECT_FALSE(session.value()->Step({{kAccumulatorPeekOp}}).ok());
  EXPECT_GE(backend->health().sessions.sessions_failed, 1u);

  // The restarted worker holds no stale state and serves fresh sessions.
  auto fresh_backend = ConnectFarm(farm);
  StatusOr<std::unique_ptr<SessionHandle>> fresh =
      fresh_backend->OpenSession(StatefulTaskKind::kAccumulator,
                                 {std::vector<uint8_t>{'z'}});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  StatusOr<RoundResult> peek = fresh.value()->Step({{kAccumulatorPeekOp}});
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek.value().responses[0], std::vector<uint8_t>{'z'});
}

TEST(RpcFailoverTest, SigtermOnIdleWorkerExitsZeroPromptly) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  ASSERT_TRUE(backend->RunRound({WorkerTask(&EchoTaskMain)}, {{7}}).ok());
  const auto start = std::chrono::steady_clock::now();
  const int exit_status = farm.Terminate(0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(exit_status, 0);
  EXPECT_LT(elapsed, 5.0);
}

}  // namespace
}  // namespace mpqopt
