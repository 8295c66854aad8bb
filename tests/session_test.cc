// Copyright 2026 mpqopt authors.
//
// Session-subsystem tests: the stateful-task registry, the worker-side
// SessionStore (TTL GC, per-session byte cap, idempotent close), the
// LocalSessionHandle on the in-process backend, and the RpcSessionHandle
// over real loopback workers — lifecycle, cross-backend traffic
// identity, reconnect + replay recovery, node migration, and the
// byte-cap / TTL edges over the wire.

#include "cluster/session/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "catalog/generator.h"
#include "cluster/async_batch_backend.h"
#include "cluster/rpc_backend.h"
#include "cluster/session/session_store.h"
#include "cluster/session/session_wire.h"
#include "cluster/session/stateful_task.h"
#include "common/serialize.h"
#include "sma/sma_node.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

std::vector<uint8_t> Bytes(const char* s) {
  return std::vector<uint8_t>(s, s + std::strlen(s));
}

std::vector<uint8_t> Peek() { return {kAccumulatorPeekOp}; }

std::vector<uint8_t> Append(const char* s) {
  std::vector<uint8_t> request = {kAccumulatorAppendOp};
  const std::vector<uint8_t> body = Bytes(s);
  request.insert(request.end(), body.begin(), body.end());
  return request;
}

// ------------------------------------------------------------ registry

TEST(StatefulTaskRegistryTest, KnownKindsResolveUnknownDoNot) {
  EXPECT_NE(StatefulTaskForKind(StatefulTaskKind::kSmaNode), nullptr);
  EXPECT_NE(StatefulTaskForKind(StatefulTaskKind::kAccumulator), nullptr);
  EXPECT_EQ(StatefulTaskForKind(StatefulTaskKind::kUnknownStateful), nullptr);
  EXPECT_EQ(StatefulTaskForKind(static_cast<StatefulTaskKind>(200)), nullptr);
  EXPECT_STREQ(StatefulTaskKindName(StatefulTaskKind::kSmaNode), "sma-node");
}

TEST(StatefulTaskRegistryTest, AccumulatorTripleWorksDirectly) {
  const StatefulTaskVtable* vtable =
      StatefulTaskForKind(StatefulTaskKind::kAccumulator);
  ASSERT_NE(vtable, nullptr);
  StatusOr<std::unique_ptr<SessionState>> state = vtable->open(Bytes("ab"));
  ASSERT_TRUE(state.ok());
  StatusOr<std::vector<uint8_t>> peeked =
      vtable->step(state.value().get(), Peek());
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(peeked.value(), Bytes("ab"));
  ASSERT_TRUE(vtable->step(state.value().get(), Append("cd")).ok());
  peeked = vtable->step(state.value().get(), Peek());
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(peeked.value(), Bytes("abcd"));
  EXPECT_GE(state.value()->ApproxBytes(), size_t{4});
}

TEST(StatefulTaskRegistryTest, SmaOutOfOrderChunkFailsTheStepNotTheNode) {
  // A replica reconstructed from wire bytes must treat an assignment
  // whose sub-plans were never broadcast as a step error (Corruption),
  // never an abort — a remote master's bug must not kill the worker
  // process hosting other masters' replicas.
  GeneratorOptions gen_opts;
  gen_opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(gen_opts, 99);
  const Query q = gen.Generate(4);
  const StatefulTaskVtable* vtable =
      StatefulTaskForKind(StatefulTaskKind::kSmaNode);
  ASSERT_NE(vtable, nullptr);
  StatusOr<std::unique_ptr<SessionState>> state =
      vtable->open(SmaNode::BuildOpenRequest(q, SmaNodeOptions{}));
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  // Level-3 set 0b0111 before any level-2 broadcast: no sub-plans yet.
  ByteWriter writer;
  writer.WriteU8(kSmaComputeChunkOp);
  writer.WriteU32(1);
  writer.WriteU64(0b0111);
  StatusOr<std::vector<uint8_t>> response =
      vtable->step(state.value().get(), writer.Release());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCorruption);
}

// -------------------------------------------------------- SessionStore

TEST(SessionStoreTest, OpenStepCloseLifecycle) {
  SessionStore store(SessionStoreOptions{});
  SessionReply reply = store.Handle(
      kSessionOpenFrame,
      BuildSessionOpenPayload(7, StatefulTaskKind::kAccumulator, Bytes("x")));
  EXPECT_EQ(reply.kind, RpcReplyKind::kOk);
  EXPECT_EQ(store.size(), 1u);

  reply = store.Handle(kSessionStepFrame,
                       BuildSessionStepPayload(7, Append("y")));
  EXPECT_EQ(reply.kind, RpcReplyKind::kOk);
  reply = store.Handle(kSessionStepFrame, BuildSessionStepPayload(7, Peek()));
  EXPECT_EQ(reply.kind, RpcReplyKind::kOk);
  EXPECT_EQ(reply.body, Bytes("xy"));

  reply = store.Handle(kSessionCloseFrame, BuildSessionClosePayload(7));
  EXPECT_EQ(reply.kind, RpcReplyKind::kOk);
  EXPECT_EQ(store.size(), 0u);
  // Stepping a closed session is a SESSION error (replica gone,
  // recoverable by re-open) — not a task error.
  reply = store.Handle(kSessionStepFrame, BuildSessionStepPayload(7, Peek()));
  EXPECT_EQ(reply.kind, RpcReplyKind::kSessionError);
  // Closing again is fine (idempotent).
  reply = store.Handle(kSessionCloseFrame, BuildSessionClosePayload(7));
  EXPECT_EQ(reply.kind, RpcReplyKind::kOk);
}

TEST(SessionStoreTest, SessionsAreIsolatedById) {
  SessionStore store(SessionStoreOptions{});
  store.Handle(kSessionOpenFrame,
               BuildSessionOpenPayload(1, StatefulTaskKind::kAccumulator,
                                       Bytes("a")));
  store.Handle(kSessionOpenFrame,
               BuildSessionOpenPayload(2, StatefulTaskKind::kAccumulator,
                                       Bytes("b")));
  store.Handle(kSessionStepFrame, BuildSessionStepPayload(1, Append("1")));
  SessionReply reply =
      store.Handle(kSessionStepFrame, BuildSessionStepPayload(2, Peek()));
  EXPECT_EQ(reply.body, Bytes("b"));
  reply = store.Handle(kSessionStepFrame, BuildSessionStepPayload(1, Peek()));
  EXPECT_EQ(reply.body, Bytes("a1"));
}

TEST(SessionStoreTest, UnknownStatefulKindIsATaskError) {
  SessionStore store(SessionStoreOptions{});
  const SessionReply reply = store.Handle(
      kSessionOpenFrame,
      BuildSessionOpenPayload(9, static_cast<StatefulTaskKind>(123), {}));
  EXPECT_EQ(reply.kind, RpcReplyKind::kTaskError);
  EXPECT_EQ(store.size(), 0u);
}

TEST(SessionStoreTest, MalformedFramesAreTaskErrorsNotCrashes) {
  SessionStore store(SessionStoreOptions{});
  EXPECT_EQ(store.Handle(kSessionOpenFrame, {1, 2}).kind,
            RpcReplyKind::kTaskError);
  EXPECT_EQ(store.Handle(kSessionStepFrame, {}).kind,
            RpcReplyKind::kTaskError);
  EXPECT_EQ(store.Handle(0x7f, {}).kind, RpcReplyKind::kTaskError);
}

TEST(SessionStoreTest, TtlExpiryReclaimsAbandonedSessions) {
  SessionStoreOptions options;
  options.ttl_ms = 50;
  SessionStore store(options);
  store.Handle(kSessionOpenFrame,
               BuildSessionOpenPayload(3, StatefulTaskKind::kAccumulator,
                                       Bytes("z")));
  EXPECT_EQ(store.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  store.SweepExpired();
  EXPECT_EQ(store.size(), 0u);
  const SessionReply reply =
      store.Handle(kSessionStepFrame, BuildSessionStepPayload(3, Peek()));
  EXPECT_EQ(reply.kind, RpcReplyKind::kSessionError);
}

TEST(SessionStoreTest, TouchedSessionsOutliveTheTtlOfIdleOnes) {
  SessionStoreOptions options;
  options.ttl_ms = 150;
  SessionStore store(options);
  store.Handle(kSessionOpenFrame,
               BuildSessionOpenPayload(1, StatefulTaskKind::kAccumulator,
                                       Bytes("live")));
  store.Handle(kSessionOpenFrame,
               BuildSessionOpenPayload(2, StatefulTaskKind::kAccumulator,
                                       Bytes("idle")));
  // Keep session 1 warm past session 2's expiry.
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(store
                  .Handle(kSessionStepFrame,
                          BuildSessionStepPayload(1, Peek()))
                  .kind,
              RpcReplyKind::kOk);
  }
  EXPECT_EQ(store.size(), 1u);  // the idle one was swept
  EXPECT_EQ(
      store.Handle(kSessionStepFrame, BuildSessionStepPayload(2, Peek())).kind,
      RpcReplyKind::kSessionError);
}

TEST(SessionStoreTest, ByteCapDropsTheReplicaDeterministically) {
  SessionStoreOptions options;
  options.max_session_bytes = 256;
  SessionStore store(options);
  SessionReply reply = store.Handle(
      kSessionOpenFrame,
      BuildSessionOpenPayload(4, StatefulTaskKind::kAccumulator, Bytes("s")));
  ASSERT_EQ(reply.kind, RpcReplyKind::kOk);
  // Grow the replica far past the cap: a TASK error (deterministic — a
  // replay would exceed the cap again), and the replica is dropped NOW.
  std::vector<uint8_t> big(1024, 'x');
  big.insert(big.begin(), kAccumulatorAppendOp);
  reply = store.Handle(kSessionStepFrame, BuildSessionStepPayload(4, big));
  EXPECT_EQ(reply.kind, RpcReplyKind::kTaskError);
  const std::string message(reply.body.begin(), reply.body.end());
  EXPECT_NE(message.find("byte cap"), std::string::npos) << message;
  EXPECT_EQ(store.size(), 0u);
  reply = store.Handle(kSessionStepFrame, BuildSessionStepPayload(4, Peek()));
  EXPECT_EQ(reply.kind, RpcReplyKind::kSessionError);
}

// ------------------------------------------------- handles, per backend

class SessionBackendTest : public ::testing::TestWithParam<BackendKind> {
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

TEST_P(SessionBackendTest, StatePersistsAcrossRoundsAndIsPerNode) {
  auto backend = MakeTestBackend();
  StatusOr<std::unique_ptr<SessionHandle>> session_or = backend->OpenSession(
      StatefulTaskKind::kAccumulator, {Bytes("a"), Bytes("b"), Bytes("c")});
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  std::unique_ptr<SessionHandle>& session = session_or.value();
  EXPECT_EQ(session->num_nodes(), 3u);

  // Broadcast mutates every replica; later steps must see it.
  StatusOr<RoundResult> bcast = session->Broadcast(Append("+"));
  ASSERT_TRUE(bcast.ok()) << bcast.status().ToString();
  StatusOr<RoundResult> peek =
      session->Step({Peek(), Peek(), Peek()});
  ASSERT_TRUE(peek.ok()) << peek.status().ToString();
  EXPECT_EQ(peek.value().responses[0], Bytes("a+"));
  EXPECT_EQ(peek.value().responses[1], Bytes("b+"));
  EXPECT_EQ(peek.value().responses[2], Bytes("c+"));

  session->Close();
  session->Close();  // idempotent

  const SessionCounterSnapshot counters = backend->health().sessions;
  EXPECT_EQ(counters.sessions_opened, 1u);
  EXPECT_EQ(counters.session_rounds, 2u);
  EXPECT_EQ(counters.sessions_failed, 0u);
}

TEST_P(SessionBackendTest, TrafficAccountingMatchesAcrossBackends) {
  // The same session script must report identical bytes and messages on
  // every backend — the property that lets SMA's network series be
  // measured over real sockets.
  const auto run = [](ExecutionBackend* backend) {
    StatusOr<std::unique_ptr<SessionHandle>> session =
        backend->OpenSession(StatefulTaskKind::kAccumulator,
                             {Bytes("aa"), Bytes("bb")});
    MPQOPT_CHECK(session.ok());
    TrafficStats traffic;
    StatusOr<RoundResult> round =
        session.value()->Broadcast(Append("payload"));
    MPQOPT_CHECK(round.ok());
    traffic.Merge(round.value().traffic);
    round = session.value()->Step({Peek(), Peek()});
    MPQOPT_CHECK(round.ok());
    traffic.Merge(round.value().traffic);
    return traffic;
  };
  auto reference = std::make_shared<AsyncBatchBackend>(1);
  const TrafficStats expect = run(reference.get());
  auto backend = MakeTestBackend();
  const TrafficStats actual = run(backend.get());
  EXPECT_EQ(actual.bytes_sent, expect.bytes_sent);
  EXPECT_EQ(actual.messages, expect.messages);
}

TEST_P(SessionBackendTest, UnregisteredKindFailsCleanly) {
  auto backend = MakeTestBackend();
  StatusOr<std::unique_ptr<SessionHandle>> session =
      backend->OpenSession(static_cast<StatefulTaskKind>(99), {Bytes("x")});
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(SessionBackendTest, StepTaskErrorFailsTheRound) {
  auto backend = MakeTestBackend();
  StatusOr<std::unique_ptr<SessionHandle>> session =
      backend->OpenSession(StatefulTaskKind::kAccumulator, {Bytes("x")});
  ASSERT_TRUE(session.ok());
  // Op 250 is not a valid accumulator op: a deterministic task error.
  StatusOr<RoundResult> round = session.value()->Step({{250}});
  ASSERT_FALSE(round.ok());
  EXPECT_NE(round.status().message().find("unknown accumulator op"),
            std::string::npos)
      << round.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SessionBackendTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// ------------------------------------------------------ rpc-only edges

BackendOptions FastRecoveryOptions(const RpcWorkerFarm& farm,
                                   int retries = 5) {
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  options.supervision.max_redials = retries;
  options.supervision.backoff_initial_ms = 20;
  options.supervision.backoff_max_ms = 200;
  return options;
}

std::shared_ptr<ExecutionBackend> ConnectFarm(const RpcWorkerFarm& farm,
                                              int retries = 5) {
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, FastRecoveryOptions(farm, retries));
  MPQOPT_CHECK(backend.ok());
  return std::move(backend).value();
}

TEST(RpcSessionTest, MoreNodesThanWorkersShareConnections) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  StatusOr<std::unique_ptr<SessionHandle>> session = backend->OpenSession(
      StatefulTaskKind::kAccumulator,
      {Bytes("0"), Bytes("1"), Bytes("2"), Bytes("3"), Bytes("4")});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session.value()->Broadcast(Append("!")).ok());
  StatusOr<RoundResult> peek = session.value()->Step(
      std::vector<std::vector<uint8_t>>(5, Peek()));
  ASSERT_TRUE(peek.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(peek.value().responses[i],
              Bytes((std::to_string(i) + "!").c_str()));
  }
}

TEST(RpcSessionTest, RestartedWorkerIsRecoveredByReplay) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  StatusOr<std::unique_ptr<SessionHandle>> session =
      backend->OpenSession(StatefulTaskKind::kAccumulator, {Bytes("s")});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Broadcast(Append("1")).ok());
  ASSERT_TRUE(session.value()->Broadcast(Append("2")).ok());

  // The worker dies and comes back empty: the replica must be rebuilt
  // transparently from open + the recorded broadcasts.
  farm.Kill(0);
  farm.Restart(0);
  StatusOr<RoundResult> peek = session.value()->Step({Peek()});
  ASSERT_TRUE(peek.ok()) << peek.status().ToString();
  EXPECT_EQ(peek.value().responses[0], Bytes("s12"));
  const SessionCounterSnapshot counters = backend->health().sessions;
  EXPECT_GE(counters.sessions_recovered, 1u);
  EXPECT_EQ(counters.sessions_failed, 0u);
}

TEST(RpcSessionTest, NodesMigrateToSurvivorsWhenAWorkerStaysDead) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm, /*retries=*/1);
  StatusOr<std::unique_ptr<SessionHandle>> session = backend->OpenSession(
      StatefulTaskKind::kAccumulator, {Bytes("a"), Bytes("b")});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Broadcast(Append("+")).ok());
  // One worker dies for good; its node must MIGRATE to the survivor
  // (re-open + replay there) instead of failing the session.
  farm.Kill(0);
  StatusOr<RoundResult> peek = session.value()->Step({Peek(), Peek()});
  ASSERT_TRUE(peek.ok()) << peek.status().ToString();
  EXPECT_EQ(peek.value().responses[0], Bytes("a+"));
  EXPECT_EQ(peek.value().responses[1], Bytes("b+"));
}

TEST(RpcSessionTest, TtlExpiredReplicaIsRebuiltTransparently) {
  RpcWorkerFarm farm;
  farm.Start(1, {"--session-ttl-ms=100"});
  auto backend = ConnectFarm(farm);
  StatusOr<std::unique_ptr<SessionHandle>> session =
      backend->OpenSession(StatefulTaskKind::kAccumulator, {Bytes("t")});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Broadcast(Append("x")).ok());
  // Abandon the session well past its TTL: the worker reclaims the
  // replica (bounded memory), and the next step rebuilds it by replay.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  StatusOr<RoundResult> peek = session.value()->Step({Peek()});
  ASSERT_TRUE(peek.ok()) << peek.status().ToString();
  EXPECT_EQ(peek.value().responses[0], Bytes("tx"));
  EXPECT_GE(backend->health().sessions.sessions_recovered, 1u);
}

TEST(RpcSessionTest, ByteCapRejectionIsDeterministicAndSticky) {
  RpcWorkerFarm farm;
  farm.Start(1, {"--session-max-bytes=4096"});
  auto backend = ConnectFarm(farm);
  StatusOr<std::unique_ptr<SessionHandle>> session =
      backend->OpenSession(StatefulTaskKind::kAccumulator, {Bytes("c")});
  ASSERT_TRUE(session.ok());
  std::vector<uint8_t> big(16 * 1024, 'x');
  big.insert(big.begin(), kAccumulatorAppendOp);
  StatusOr<RoundResult> round = session.value()->Broadcast(big);
  ASSERT_FALSE(round.ok());
  EXPECT_NE(round.status().message().find("byte cap"), std::string::npos)
      << round.status().ToString();
  // The session failed deterministically — no replay loop, and every
  // later call fails fast with the same error.
  StatusOr<RoundResult> after = session.value()->Step({Peek()});
  ASSERT_FALSE(after.ok());
  EXPECT_NE(after.status().message().find("byte cap"), std::string::npos);
  EXPECT_GE(backend->health().sessions.sessions_failed, 1u);
  // The worker itself is fine: a fresh session serves normally.
  StatusOr<std::unique_ptr<SessionHandle>> fresh =
      backend->OpenSession(StatefulTaskKind::kAccumulator, {Bytes("ok")});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  StatusOr<RoundResult> peek = fresh.value()->Step({Peek()});
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek.value().responses[0], Bytes("ok"));
}

TEST(RpcSessionTest, ConcurrentSessionsOnOneBackendStayIsolated) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  constexpr int kSessions = 4;
  std::vector<int> failures(kSessions, 0);
  std::vector<std::thread> drivers;
  for (int s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&backend, &failures, s]() {
      const std::string seed = "s" + std::to_string(s);
      StatusOr<std::unique_ptr<SessionHandle>> session = backend->OpenSession(
          StatefulTaskKind::kAccumulator, {Bytes(seed.c_str())});
      if (!session.ok()) {
        ++failures[s];
        return;
      }
      std::string expect = seed;
      for (int round = 0; round < 10; ++round) {
        const std::string chunk = std::to_string(round % 10);
        if (!session.value()->Broadcast(Append(chunk.c_str())).ok()) {
          ++failures[s];
          return;
        }
        expect += chunk;
        StatusOr<RoundResult> peek = session.value()->Step({Peek()});
        if (!peek.ok() ||
            peek.value().responses[0] != Bytes(expect.c_str())) {
          ++failures[s];
          return;
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(failures[s], 0) << "session driver " << s;
  }
}

}  // namespace
}  // namespace mpqopt
