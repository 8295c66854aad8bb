// Copyright 2026 mpqopt authors.
//
// RPC-specific loopback tests: real mpqopt_worker subprocesses serve the
// rounds, covering what the backend-parameterized conformance suite in
// backend_test.cc cannot — worker crashes, unregistered tasks, scatter
// behaviour (one frame per worker), the heterogeneous wire contract, and
// the OptimizerService running unchanged over remote workers — plus
// socket-free cases for the master's batch-reply decoder.

#include "cluster/rpc_backend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "catalog/generator.h"
#include "cluster/rpc_protocol.h"
#include "cluster/task_registry.h"
#include "common/copy_probe.h"
#include "common/serialize.h"
#include "mpq/heterogeneous.h"
#include "mpq/mpq.h"
#include "service/optimizer_service.h"
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

TEST(RpcBackendTest, MasterSideScatterGatherMakesZeroPayloadCopies) {
  // The copy probe counts every master-side payload assembly copy (the
  // legacy Build*Payload builders). The production send path gathers
  // header and body spans straight into sendmsg, so a full MPQ run over
  // RPC — scatter, worker rounds, replies, finalize — must not move the
  // probe at all in this (master) process.
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);

  MpqOptions opts;
  opts.num_workers = 8;
  opts.space = PlanSpace::kLinear;
  opts.backend = backend;
  const Query query = MakeQuery(10, 91);

  const uint64_t copies_before = PayloadCopiesSoFar();
  MpqOptimizer optimizer(opts);
  StatusOr<MpqResult> result = optimizer.Optimize(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().best.empty());
  EXPECT_EQ(PayloadCopiesSoFar() - copies_before, 0u)
      << "master-side payload copy on the zero-copy path";

  // Sanity: the probe is live — the legacy copying builder moves it.
  const std::vector<uint8_t> body = {1, 2, 3};
  (void)BuildRpcReplyPayload(0.5, body.data(), body.size());
  EXPECT_EQ(PayloadCopiesSoFar() - copies_before, 1u);
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

TEST(RpcBackendTest, HeteroWorkerWireContractOverRpc) {
  RpcWorkerFarm farm;
  farm.Start(2);
  auto backend = ConnectFarm(farm);

  const Query q = MakeQuery(8, 902);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;
  const std::vector<PartitionShare> shares =
      AssignPartitions({1.0, 3.0}, opts.num_workers);
  ASSERT_EQ(shares.size(), 2u);

  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> reference;
  for (const PartitionShare& share : shares) {
    requests.push_back(HeteroMpqOptimizer::BuildRequest(q, share, opts));
    StatusOr<std::vector<uint8_t>> direct =
        HeteroMpqOptimizer::WorkerMain(requests.back());
    ASSERT_TRUE(direct.ok());
    reference.push_back(std::move(direct).value());
  }

  std::vector<WorkerTask> tasks(shares.size(),
                                WorkerTask(&HeteroMpqOptimizer::WorkerMain));
  StatusOr<RoundResult> round = backend->RunRound(tasks, requests);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(round.value().responses[i].size(), reference[i].size());
  }
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
