// Copyright 2026 mpqopt authors.
//
// RPC-specific loopback tests: real mpqopt_worker subprocesses serve the
// rounds, covering what the backend-parameterized conformance suite in
// backend_test.cc cannot — worker crashes, unregistered tasks and the
// retired task kind, scatter behaviour (one frame per worker), pipelined
// connections (rounds queue frames on a worker's connection and file
// each other's replies), and the OptimizerService running unchanged over
// remote workers — plus socket-free cases for the master's batch-reply
// decoder.

#include "cluster/rpc_backend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>

#include "catalog/generator.h"
#include "cluster/rpc_protocol.h"
#include "cluster/supervisor/worker_supervisor.h"
#include "cluster/task_registry.h"
#include "common/serialize.h"
#include "mpq/mpq.h"
#include "obs/trace.h"
#include "service/optimizer_service.h"
#include "tests/overflow_query.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

Query MakeQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

std::shared_ptr<ExecutionBackend> ConnectFarm(const RpcWorkerFarm& farm) {
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  MPQOPT_CHECK(backend.ok());
  return std::move(backend).value();
}

/// A SleepEcho request: sleep `ms` on the worker, then echo `body`.
std::vector<uint8_t> SleepEchoRequest(uint32_t ms,
                                      const std::vector<uint8_t>& body) {
  ByteWriter writer;
  writer.WriteU32(ms);
  writer.WriteBytes(body.data(), body.size());
  return writer.Release();
}

/// The rpc.exchange span of a traced round that sent one frame.
obs::SpanRecord OnlyExchangeSpan(const obs::QueryTrace& trace) {
  obs::SpanRecord found;
  int count = 0;
  for (const obs::SpanRecord& span : trace.Snapshot()) {
    if (span.name != "rpc.exchange") continue;
    found = span;
    ++count;
  }
  EXPECT_EQ(count, 1) << trace.label();
  return found;
}

TEST(RpcBackendTest, SplitEndpoints) {
  EXPECT_EQ(SplitEndpoints(""), std::vector<std::string>{});
  EXPECT_EQ(SplitEndpoints("a:1"), std::vector<std::string>{"a:1"});
  EXPECT_EQ(SplitEndpoints("a:1,b:2"),
            (std::vector<std::string>{"a:1", "b:2"}));
  EXPECT_EQ(SplitEndpoints("a:1,,b:2,"),
            (std::vector<std::string>{"a:1", "b:2"}));
}

TEST(RpcBackendTest, ConnectFailsWhenNoWorkerListens) {
  BackendOptions options;
  options.workers_addr = "127.0.0.1:1";
  options.connect_timeout_ms = 500;
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  ASSERT_FALSE(backend.ok());
  EXPECT_NE(backend.status().message().find("127.0.0.1:1"),
            std::string::npos);
}

TEST(RpcBackendTest, ConnectRequiresEndpoints) {
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, BackendOptions{});
  ASSERT_FALSE(backend.ok());
  EXPECT_NE(backend.status().message().find("workers-addr"),
            std::string::npos);
}

TEST(RpcBackendTest, RoundRobinWhenTasksExceedWorkers) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  // 7 tasks over 2 connections: every response must still land in its
  // own slot, in task order.
  std::vector<WorkerTask> tasks(7, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests;
  for (uint8_t i = 0; i < 7; ++i) {
    requests.push_back({i, static_cast<uint8_t>(i + 100)});
  }
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, requests);
}

TEST(RpcBackendTest, ConnectionsPersistAcrossManyRounds) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  std::vector<WorkerTask> tasks(3, WorkerTask(&EchoTaskMain));
  for (uint8_t r = 0; r < 50; ++r) {
    std::vector<std::vector<uint8_t>> requests(3, std::vector<uint8_t>{r});
    StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(round.value().responses, requests);
  }
}

TEST(RpcBackendTest, EachWorkerGetsItsShareInOneFrame) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  // 16 tasks over 2 workers: one kBatchTask frame of 8 per worker.
  std::vector<WorkerTask> tasks(16, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests;
  for (uint8_t i = 0; i < 16; ++i) {
    requests.push_back(std::vector<uint8_t>(i + 1u, i));
  }
  const BackendHealth before = backend->health();
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, requests);
  const BackendHealth after = backend->health();
  EXPECT_EQ(after.scatter_batches - before.scatter_batches, 2u);
  EXPECT_EQ(after.tasks_coalesced - before.tasks_coalesced, 16u);

  // A lone task ships plain: neither counter moves.
  StatusOr<RoundResult> lone =
      backend->RunRound({WorkerTask(&EchoTaskMain)}, {{4, 2}});
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();
  EXPECT_EQ(lone.value().responses[0], (std::vector<uint8_t>{4, 2}));
  const BackendHealth last = backend->health();
  EXPECT_EQ(last.scatter_batches, after.scatter_batches);
  EXPECT_EQ(last.tasks_coalesced, after.tasks_coalesced);
}

TEST(RpcBackendTest, ShareLargerThanOneFrameSplitsIntoSeveral) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  // A batch frame gathers two spans per subtask, so at most
  // kMaxSendSpans / 2 = 511 ride one frame: 1023 tasks on one worker go
  // out as 511 + 511 in two envelopes, one at a time on the connection,
  // and the last task alone, shipped plain.
  const size_t per_frame = kMaxSendSpans / 2;
  const size_t num_tasks = 2 * per_frame + 1;
  std::vector<WorkerTask> tasks(num_tasks, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests;
  for (size_t i = 0; i < num_tasks; ++i) {
    requests.push_back({static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)});
  }
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, requests);
  const BackendHealth health = backend->health();
  EXPECT_EQ(health.scatter_batches, 2u);
  EXPECT_EQ(health.tasks_coalesced, 2 * per_frame);
}

TEST(RpcBackendTest, OverflowingCostsComeBackAsAnInfinitePlan) {
  // Every plan of the full join costs +inf. The worker's DP keeps the
  // first split instead of aborting, so the round returns a plan that
  // costs +inf and the worker stays HEALTHY.
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  const Query query = OverflowingChainQuery();
  for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
    MpqOptions opts;
    opts.space = space;
    opts.num_workers = UsableWorkers(query.num_tables(), space, 4);
    opts.backend = backend;
    MpqOptimizer optimizer(opts);
    StatusOr<MpqResult> result = optimizer.Optimize(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().best.size(), 1u);
    EXPECT_EQ(result.value().arena.node(result.value().best[0]).cost.time(),
              std::numeric_limits<double>::infinity())
        << PlanSpaceName(space);
  }
  const BackendHealth health = backend->health();
  EXPECT_EQ(health.CountWorkers(WorkerHealth::kHealthy), 1u);
  EXPECT_EQ(health.workers[0].io_failures, 0u);
}

TEST(RpcReplyWireTest, GatherReplyMatchesLegacyBuilderBytes) {
  // SendRpcReply (gather spans) and the legacy BuildRpcReplyPayload +
  // SendFrame (assemble-then-copy) must emit byte-identical frames: new
  // masters keep understanding old workers and vice versa.
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  StatusOr<Socket> client = DialTcp(
      "127.0.0.1:" + std::to_string(listener.value().port()), 2000);
  ASSERT_TRUE(client.ok());
  StatusOr<Socket> server = listener.value().Accept(2000);
  ASSERT_TRUE(server.ok());

  const double seconds = 0.015625;
  std::vector<uint8_t> body(1000);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 13 + 5);
  }

  ASSERT_TRUE(SendRpcReply(client.value().fd(), RpcReplyKind::kOk, seconds,
                           {body.data(), body.size()})
                  .ok());
  const std::vector<uint8_t> legacy =
      BuildRpcReplyPayload(seconds, body.data(), body.size());
  ASSERT_TRUE(SendFrame(client.value().fd(),
                        static_cast<uint8_t>(RpcReplyKind::kOk), legacy)
                  .ok());

  Frame gathered;
  Frame copied;
  ASSERT_TRUE(RecvFrame(server.value().fd(), &gathered).ok());
  ASSERT_TRUE(RecvFrame(server.value().fd(), &copied).ok());
  EXPECT_EQ(gathered.kind, copied.kind);
  EXPECT_EQ(gathered.payload, copied.payload);

  // The split receiver decodes the seconds header off the same bytes.
  ASSERT_TRUE(SendRpcReply(client.value().fd(), RpcReplyKind::kTaskError,
                           seconds, {body.data(), body.size()})
                  .ok());
  uint8_t kind = 0;
  double decoded_seconds = 0;
  std::vector<uint8_t> decoded_body;
  ASSERT_TRUE(RecvRpcReply(server.value().fd(), &kind, &decoded_seconds,
                           &decoded_body, /*timeout_ms=*/2000)
                  .ok());
  EXPECT_EQ(kind, static_cast<uint8_t>(RpcReplyKind::kTaskError));
  EXPECT_EQ(decoded_seconds, seconds);
  EXPECT_EQ(decoded_body, body);
}

/// A real BatchTaskMain reply, made without sockets, to three subtasks:
/// echo "ab", fail "no", echo of nothing.
std::vector<uint8_t> SampleBatchReply() {
  ByteWriter request;
  request.WriteU32(3);
  const auto slot = [&request](RpcTaskKind kind, const std::string& body) {
    request.WriteU8(static_cast<uint8_t>(kind));
    request.WriteU32(static_cast<uint32_t>(body.size()));
    request.WriteBytes(reinterpret_cast<const uint8_t*>(body.data()),
                       body.size());
  };
  slot(RpcTaskKind::kEchoTask, "ab");
  slot(RpcTaskKind::kFailTask, "no");
  slot(RpcTaskKind::kEchoTask, "");
  StatusOr<std::vector<uint8_t>> reply = BatchTaskMain(request.Release());
  MPQOPT_CHECK(reply.ok());
  return std::move(reply).value();
}

std::string BodyText(const BatchSlot& slot) {
  return std::string(slot.body.data, slot.body.data + slot.body.size);
}

TEST(BatchReplyDecoderTest, SplitsEverySlotOfAWellFormedReply) {
  const std::vector<uint8_t> reply = SampleBatchReply();
  std::vector<BatchSlot> slots;
  ASSERT_TRUE(ParseBatchTaskResponse(reply, 3, &slots).ok());
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_TRUE(slots[0].ok);
  EXPECT_EQ(BodyText(slots[0]), "ab");
  EXPECT_GE(slots[0].compute_seconds, 0.0);
  EXPECT_TRUE(slots[2].ok);
  EXPECT_EQ(slots[2].body.size, 0u);
}

TEST(BatchReplyDecoderTest, OkZeroSlotIsASubtaskFailureNotADecodeError) {
  const std::vector<uint8_t> reply = SampleBatchReply();
  std::vector<BatchSlot> slots;
  ASSERT_TRUE(ParseBatchTaskResponse(reply, 3, &slots).ok());
  EXPECT_FALSE(slots[1].ok);
  EXPECT_NE(BodyText(slots[1]).find("no"), std::string::npos);
}

TEST(BatchReplyDecoderTest, RejectsEveryTruncation) {
  const std::vector<uint8_t> reply = SampleBatchReply();
  std::vector<BatchSlot> slots;
  for (size_t cut = 0; cut < reply.size(); ++cut) {
    const std::vector<uint8_t> prefix(reply.begin(), reply.begin() + cut);
    const Status s = ParseBatchTaskResponse(prefix, 3, &slots);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "cut at " << cut;
  }
  // A reply with fewer slots than the request had subtasks is truncated.
  EXPECT_EQ(ParseBatchTaskResponse(reply, 4, &slots).code(),
            StatusCode::kCorruption);
}

TEST(BatchReplyDecoderTest, RejectsASlotLongerThanTheReply) {
  std::vector<uint8_t> reply = SampleBatchReply();
  // Slot 0's u32 length follows its u8 ok and f64 seconds.
  const size_t len_offset = sizeof(uint8_t) + sizeof(double);
  const uint32_t oversized = static_cast<uint32_t>(reply.size());
  std::memcpy(reply.data() + len_offset, &oversized, sizeof(oversized));
  std::vector<BatchSlot> slots;
  const Status s = ParseBatchTaskResponse(reply, 3, &slots);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("exceeds"), std::string::npos) << s.ToString();
}

TEST(BatchReplyDecoderTest, RejectsTrailingBytes) {
  std::vector<uint8_t> reply = SampleBatchReply();
  std::vector<BatchSlot> slots;
  // More slots on the wire than the request had subtasks...
  EXPECT_EQ(ParseBatchTaskResponse(reply, 2, &slots).code(),
            StatusCode::kCorruption);
  // ...or any byte after the last slot.
  reply.push_back(0);
  const Status s = ParseBatchTaskResponse(reply, 3, &slots);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("trailing"), std::string::npos) << s.ToString();
}

TEST(BatchReplyDecoderTest, RejectsAnOkByteOtherThanZeroOrOne) {
  std::vector<uint8_t> reply = SampleBatchReply();
  reply[0] = 2;
  std::vector<BatchSlot> slots;
  EXPECT_EQ(ParseBatchTaskResponse(reply, 3, &slots).code(),
            StatusCode::kCorruption);
}

/// A kTracedTask reply: the u32 span-block length, the block (trace id,
/// span count, then `spans` as written), and the inner body.
std::vector<uint8_t> TracedReply(uint32_t block_len, uint32_t count,
                                 const std::vector<uint8_t>& spans,
                                 const std::vector<uint8_t>& body) {
  ByteWriter writer;
  writer.WriteU32(block_len);
  writer.WriteU64(7);  // trace id
  writer.WriteU32(count);
  writer.WriteBytes(spans.data(), spans.size());
  writer.WriteBytes(body.data(), body.size());
  return writer.Release();
}

TEST(BatchReplyDecoderTest, TracedReplyCountBeyondTheBlockIsCorruption) {
  // 16 bytes claiming 2^32 - 1 spans: rejected before any reservation.
  const std::vector<uint8_t> reply = TracedReply(12, 0xFFFFFFFF, {}, {});
  ASSERT_EQ(reply.size(), 16u);
  uint64_t trace_id = 0;
  std::vector<ImportedSpan> spans;
  std::vector<uint8_t> body;
  EXPECT_EQ(ParseTracedTaskResponse(reply, &trace_id, &spans, &body).code(),
            StatusCode::kCorruption);
}

TEST(BatchReplyDecoderTest, TracedReplySpansMustEndAtTheBlock) {
  // One span with a 4-byte name is 21 bytes, but the block leaves it 17:
  // its last timestamp would be read from the body.
  ByteWriter span;
  span.WriteU8(4);
  span.WriteBytes(reinterpret_cast<const uint8_t*>("span"), 4);
  span.WriteU64(1);
  span.WriteU64(2);
  const std::vector<uint8_t> span_bytes = span.Release();
  const std::vector<uint8_t> body = {9, 9, 9, 9, 9, 9, 9, 9};
  uint64_t trace_id = 0;
  std::vector<ImportedSpan> spans;
  std::vector<uint8_t> decoded;
  const auto parse = [&](uint32_t block_len) {
    return ParseTracedTaskResponse(TracedReply(block_len, 1, span_bytes, body),
                                   &trace_id, &spans, &decoded);
  };
  EXPECT_EQ(parse(12 + 17).code(), StatusCode::kCorruption);
  // A block longer than its spans is rejected too...
  EXPECT_EQ(parse(12 + 21 + 1).code(), StatusCode::kCorruption);
  // ...and the exact block parses, with the body intact.
  ASSERT_TRUE(parse(12 + 21).ok());
  EXPECT_EQ(trace_id, 7u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "span");
  EXPECT_EQ(spans[0].dur_ns, 2u);
  EXPECT_EQ(decoded, body);
}

TEST(RpcBackendTest, UnregisteredTaskIsRejectedUpFront) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  const WorkerTask closure =
      [](const std::vector<uint8_t>& request)
      -> StatusOr<std::vector<uint8_t>> { return request; };
  StatusOr<RoundResult> round = backend->RunRound({closure}, {{1}});
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(round.status().message().find("registered"), std::string::npos);
}

TEST(RpcBackendTest, TaskErrorDoesNotPoisonTheConnection) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  const std::string message = "bad payload";
  StatusOr<RoundResult> bad = backend->RunRound(
      {WorkerTask(&FailTaskMain)},
      {std::vector<uint8_t>(message.begin(), message.end())});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("bad payload"), std::string::npos);
  // The worker stayed healthy; the next round must succeed.
  StatusOr<RoundResult> good =
      backend->RunRound({WorkerTask(&EchoTaskMain)}, {{9}});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().responses[0], std::vector<uint8_t>{9});
}

// Task kind 2 is retired (cluster/task_registry.h). A worker answers it
// like any unknown kind: a plain frame gets a task-error reply and a batch
// slot an ok = 0 outcome, while the worker stays HEALTHY on the same
// connection and the slot after it still runs.
TEST(RpcBackendTest, RetiredTaskKindGetsATaskError) {
  RpcWorkerFarm farm;
  farm.Start(1);
  StatusOr<std::unique_ptr<WorkerSupervisor>> connected =
      WorkerSupervisor::Connect(farm.endpoints(), SupervisorOptions());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  WorkerSupervisor& supervisor = *connected.value();
  constexpr uint8_t kRetiredKind = 2;
  std::vector<uint8_t> response;
  double seconds = 0;
  bool worker_failed = true;

  const Status plain = supervisor.Exchange(0, kRetiredKind, {1, 2, 3},
                                           &response, &seconds,
                                           &worker_failed);
  ASSERT_FALSE(plain.ok());
  EXPECT_FALSE(worker_failed);
  EXPECT_NE(plain.message().find("task failed: unknown task kind 2"),
            std::string::npos)
      << plain.ToString();

  const std::string echo_body = "kept";
  ByteWriter batch;
  batch.WriteU32(2);
  batch.WriteU8(kRetiredKind);
  batch.WriteU32(1);
  batch.WriteU8(9);
  batch.WriteU8(static_cast<uint8_t>(RpcTaskKind::kEchoTask));
  batch.WriteU32(static_cast<uint32_t>(echo_body.size()));
  batch.WriteBytes(reinterpret_cast<const uint8_t*>(echo_body.data()),
                   echo_body.size());
  worker_failed = true;
  const Status batched = supervisor.Exchange(
      0, static_cast<uint8_t>(RpcTaskKind::kBatchTask), batch.Release(),
      &response, &seconds, &worker_failed);
  ASSERT_TRUE(batched.ok()) << batched.ToString();
  EXPECT_FALSE(worker_failed);
  std::vector<BatchSlot> slots;
  ASSERT_TRUE(ParseBatchTaskResponse(response, 2, &slots).ok());
  EXPECT_FALSE(slots[0].ok);
  EXPECT_NE(BodyText(slots[0]).find("kind 2"), std::string::npos)
      << BodyText(slots[0]);
  EXPECT_TRUE(slots[1].ok);
  EXPECT_EQ(BodyText(slots[1]), echo_body);

  const BackendHealth health = supervisor.Snapshot();
  ASSERT_EQ(health.workers.size(), 1u);
  EXPECT_EQ(health.workers[0].health, WorkerHealth::kHealthy);
  EXPECT_EQ(health.workers[0].io_failures, 0u);
}

TEST(RpcBackendTest, KilledWorkerIsFailedOverToTheSurvivor) {
  // The supervision subsystem turned this scenario from fail-fast into
  // self-healing: with one of two workers SIGKILLed, the round must
  // complete on the survivor (redials to the vanished peer are refused,
  // its tasks re-scatter), and the failure must be visible in the
  // backend's health report rather than in the round status.
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  farm.Kill(0);
  std::vector<WorkerTask> tasks(2, WorkerTask(&EchoTaskMain));
  std::vector<std::vector<uint8_t>> requests = {{1}, {2}};
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().responses, requests);
  const BackendHealth health = backend->health();
  ASSERT_EQ(health.workers.size(), 2u);
  EXPECT_GE(health.tasks_rescattered, 1u);
  EXPECT_GE(health.reconnect_attempts, 1u);
  EXPECT_EQ(health.CountWorkers(WorkerHealth::kHealthy), 1u);
  // Later rounds keep completing on the survivor. Redials are attempted
  // lazily by scatter passes once the backoff window expires, so drive
  // rounds until the vanished worker's budget is burned and it goes
  // DEAD — after which it is never dialed again.
  for (int r = 0;
       r < 100 && backend->health().CountWorkers(WorkerHealth::kDead) == 0;
       ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    StatusOr<RoundResult> again = backend->RunRound(tasks, requests);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().responses, requests);
  }
  EXPECT_EQ(backend->health().CountWorkers(WorkerHealth::kDead), 1u);
}

TEST(RpcBackendTest, KilledWorkerMidRoundYieldsErrorNotHang) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  // One task that would sleep 30 s remotely; the worker is SIGKILLed
  // shortly after dispatch, so the round must come back with an error
  // long before the sleep could finish.
  ByteWriter writer;
  writer.WriteU32(30'000);
  std::vector<std::vector<uint8_t>> requests = {writer.Release()};
  std::thread killer([&farm]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    farm.Kill(0);
  });
  const auto start = std::chrono::steady_clock::now();
  StatusOr<RoundResult> round =
      backend->RunRound({WorkerTask(&SleepEchoTaskMain)}, requests);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  killer.join();
  ASSERT_FALSE(round.ok());
  EXPECT_NE(round.status().message().find("disconnected"), std::string::npos);
  EXPECT_LT(elapsed, 20.0);
}

TEST(RpcBackendTest, IoTimeoutBoundsAStuckReplyWait) {
  RpcWorkerFarm farm;
  farm.Start(1);
  BackendOptions options;
  options.workers_addr = farm.workers_addr();
  options.io_timeout_ms = 200;
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(BackendKind::kRpc, options);
  ASSERT_TRUE(backend.ok());
  // The worker is healthy but the task outlives the reply deadline; the
  // round must error out at ~the timeout, not after the full sleep.
  ByteWriter writer;
  writer.WriteU32(10'000);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<RoundResult> round = backend.value()->RunRound(
      {WorkerTask(&SleepEchoTaskMain)}, {writer.Release()});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(round.ok());
  EXPECT_NE(round.status().message().find("timed out"), std::string::npos);
  EXPECT_LT(elapsed, 8.0);
}

TEST(RpcServiceTest, ServiceServesOverAGivenRpcBackend) {
  RpcWorkerFarm farm;
  farm.Start(2);
  ServiceOptions service_opts;
  service_opts.backend = ConnectFarm(farm);
  OptimizerService service(service_opts);
  EXPECT_STREQ(service.backend().name(), "rpc");
  MpqOptions opts;
  opts.num_workers = 4;
  StatusOr<MpqResult> result = service.Optimize(MakeQuery(7, 5), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(RpcBackendTest, ConcurrentRoundsShareConnectionsSafely) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  constexpr int kSubmitters = 6;
  constexpr int kRoundsEach = 15;
  std::vector<std::thread> submitters;
  std::vector<int> failures(kSubmitters, 0);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&backend, &failures, s]() {
      for (int r = 0; r < kRoundsEach; ++r) {
        std::vector<WorkerTask> tasks(4, WorkerTask(&EchoTaskMain));
        std::vector<std::vector<uint8_t>> requests;
        for (int t = 0; t < 4; ++t) {
          requests.push_back({static_cast<uint8_t>(s),
                              static_cast<uint8_t>(r),
                              static_cast<uint8_t>(t)});
        }
        StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
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

// A round submitted while another round's task runs on the only worker
// queues its frame behind it at once: its rpc.exchange span starts before
// the first round's ends. A connection held from send to reply would
// keep the second send waiting for the first reply.
TEST(RpcPipelineTest, RoundSendsWhileAnotherRoundsTaskRuns) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  obs::QueryTrace first_trace(1, "first");
  obs::QueryTrace second_trace(2, "second");
  StatusOr<RoundResult> first = Status::Internal("not run");
  std::thread first_round([&]() {
    obs::TraceContextScope scope(&first_trace, obs::kNoSpan);
    first = backend->RunRound({WorkerTask(&SleepEchoTaskMain)},
                              {SleepEchoRequest(300, {1})});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  StatusOr<RoundResult> second = Status::Internal("not run");
  {
    obs::TraceContextScope scope(&second_trace, obs::kNoSpan);
    second = backend->RunRound({WorkerTask(&EchoTaskMain)}, {{2}});
  }
  first_round.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().responses[0], std::vector<uint8_t>{1});
  EXPECT_EQ(second.value().responses[0], std::vector<uint8_t>{2});
  const obs::SpanRecord a = OnlyExchangeSpan(first_trace);
  const obs::SpanRecord b = OnlyExchangeSpan(second_trace);
  EXPECT_GT(b.start_ns, a.start_ns);
  EXPECT_LT(b.start_ns, a.end_ns)
      << "the second round's frame waited for the first round's reply";
}

// A task-error reply in the middle of a connection's queue fails only its
// own round: the round queued behind it gets its bytes, and the worker
// stays HEALTHY on the same connection.
TEST(RpcPipelineTest, TaskErrorLeavesTheRoundQueuedBehindItOk) {
  RpcWorkerFarm farm;
  farm.Start(1);
  auto backend = ConnectFarm(farm);
  const std::string message = "bad payload";
  // A 300 ms task holds the worker while a failing task and an echo
  // queue behind it, in that order.
  StatusOr<RoundResult> held = Status::Internal("not run");
  StatusOr<RoundResult> bad = Status::Internal("not run");
  std::thread holder([&]() {
    held = backend->RunRound({WorkerTask(&SleepEchoTaskMain)},
                             {SleepEchoRequest(300, {1})});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread failer([&]() {
    bad = backend->RunRound(
        {WorkerTask(&FailTaskMain)},
        {std::vector<uint8_t>(message.begin(), message.end())});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  StatusOr<RoundResult> good =
      backend->RunRound({WorkerTask(&EchoTaskMain)}, {{7}});
  holder.join();
  failer.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held.value().responses[0], std::vector<uint8_t>{1});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find(message), std::string::npos);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().responses[0], std::vector<uint8_t>{7});
  const BackendHealth health = backend->health();
  ASSERT_EQ(health.workers.size(), 1u);
  EXPECT_EQ(health.workers[0].health, WorkerHealth::kHealthy);
  EXPECT_EQ(health.workers[0].io_failures, 0u);
  EXPECT_EQ(health.workers[0].reconnects, 0u);
  EXPECT_EQ(health.tasks_rescattered, 0u);
}

// Replies are filed by their frame's place in the connection's FIFO,
// whichever thread reads them: the owner of the last of three queued
// frames waits for its reply first, reading and filing the two ahead of
// it, whose owners then find theirs filed.
TEST(RpcPipelineTest, RepliesAreFiledByQueuePosition) {
  RpcWorkerFarm farm;
  farm.Start(1);
  StatusOr<std::unique_ptr<WorkerSupervisor>> connected =
      WorkerSupervisor::Connect(farm.endpoints(), SupervisorOptions());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  WorkerSupervisor& supervisor = *connected.value();
  const auto echo = static_cast<uint8_t>(RpcTaskKind::kEchoTask);
  const uint8_t kinds[] = {static_cast<uint8_t>(RpcTaskKind::kSleepEchoTask),
                           echo, echo};
  const std::vector<std::vector<uint8_t>> requests = {
      SleepEchoRequest(100, {1}), {2, 2}, {3, 3, 3}};
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
  double seconds[3] = {-1, -1, -1};
  for (int i : {2, 0, 1}) {
    bool worker_failed = true;
    ASSERT_TRUE(
        supervisor.Receive(&pending[i], &seconds[i], &worker_failed).ok());
    EXPECT_FALSE(worker_failed);
  }
  EXPECT_EQ(responses[0], std::vector<uint8_t>{1});
  EXPECT_EQ(responses[1], (std::vector<uint8_t>{2, 2}));
  EXPECT_EQ(responses[2], (std::vector<uint8_t>{3, 3, 3}));
  EXPECT_GE(seconds[0], 0.09);  // the worker-measured 100 ms sleep
  EXPECT_LT(seconds[1], 0.09);
  EXPECT_LT(seconds[2], 0.09);
  EXPECT_EQ(supervisor.health(0), WorkerHealth::kHealthy);
}

// Deadlock guard: concurrent rounds over two workers whose frames and
// replies are far larger than the loopback socket buffers, so a round is
// routinely blocked sending to a worker while the worker's reply to
// another round fills its socket; the blocked sender must read that reply
// itself. Every round must finish with its own bytes.
TEST(RpcPipelineTest, LargeFramesFromConcurrentRoundsCannotDeadlock) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);
  constexpr size_t kPayloadBytes = size_t{16} << 20;
  constexpr int kSubmitters = 3;
  constexpr int kRoundsEach = 2;
  std::vector<int> failures(kSubmitters, 0);
  std::future<void> run = std::async(std::launch::async, [&]() {
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&backend, &failures, s]() {
        for (int r = 0; r < kRoundsEach; ++r) {
          std::vector<std::vector<uint8_t>> requests(2);
          for (size_t t = 0; t < requests.size(); ++t) {
            requests[t].resize(kPayloadBytes);
            const size_t salt = 31 * s + 7 * r + 3 * t;
            for (size_t i = 0; i < kPayloadBytes; ++i) {
              requests[t][i] = static_cast<uint8_t>((i >> 10) + salt);
            }
          }
          StatusOr<RoundResult> round = backend->RunRound(
              std::vector<WorkerTask>(2, WorkerTask(&EchoTaskMain)),
              requests);
          if (!round.ok() || round.value().responses != requests) {
            ++failures[s];
          }
        }
      });
    }
    for (std::thread& t : submitters) t.join();
  });
  AbortUnlessDone(run, std::chrono::seconds(120), &farm,
                  "rounds with 16 MiB frames did not finish within 120 s: "
                  "deadlock between pipelined rounds?");
  run.get();
  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(failures[s], 0) << "submitter " << s;
  }
  EXPECT_EQ(backend->health().CountWorkers(WorkerHealth::kHealthy), 2u);
}

TEST(RpcServiceTest, OptimizerServiceRunsUnchangedOverRpc) {
  RpcWorkerFarm farm;
  farm.Start(2);

  ServiceOptions service_opts;
  service_opts.backend = ConnectFarm(farm);
  service_opts.dispatcher_threads = 3;
  OptimizerService service(service_opts);
  EXPECT_STREQ(service.backend().name(), "rpc");

  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;

  std::vector<Query> queries;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    queries.push_back(MakeQuery(7, 700 + seed));
  }
  const BatchReport report = service.OptimizeBatch(queries, opts);
  ASSERT_EQ(report.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(report.results[i].ok())
        << "query " << i << ": " << report.results[i].status().ToString();
    // The plan served over real sockets must cost exactly what the
    // default in-process run finds.
    MpqOptimizer reference(opts);
    StatusOr<MpqResult> direct = reference.Optimize(queries[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_DOUBLE_EQ(
        report.results[i]
            .value()
            .arena.node(report.results[i].value().best[0])
            .cost.time(),
        direct.value().arena.node(direct.value().best[0]).cost.time());
    EXPECT_EQ(report.results[i].value().network_bytes,
              direct.value().network_bytes);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_completed, queries.size());
  EXPECT_EQ(stats.queries_failed, 0u);
}

}  // namespace
}  // namespace mpqopt
