// Copyright 2026 mpqopt authors.

#include "cluster/task_registry.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/serialize.h"
#include "mpq/mpq.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"

namespace mpqopt {
namespace {

/// The exact function-pointer type a registrable entry point must have;
/// ResolveTaskKind can only see through std::functions wrapping this type.
using WorkerFn =
    StatusOr<std::vector<uint8_t>> (*)(const std::vector<uint8_t>&);

}  // namespace

const char* RpcTaskKindName(RpcTaskKind kind) {
  switch (kind) {
    case RpcTaskKind::kUnknownTask:
      return "unknown";
    case RpcTaskKind::kMpqWorker:
      return "mpq";
    case RpcTaskKind::kEchoTask:
      return "echo";
    case RpcTaskKind::kFailTask:
      return "fail";
    case RpcTaskKind::kSleepEchoTask:
      return "sleep-echo";
    case RpcTaskKind::kPingTask:
      return "ping";
    case RpcTaskKind::kBatchTask:
      return "batch";
    case RpcTaskKind::kStatsPollTask:
      return "stats-poll";
  }
  return "unknown";
}

StatusOr<std::vector<uint8_t>> EchoTaskMain(
    const std::vector<uint8_t>& request) {
  return request;
}

StatusOr<std::vector<uint8_t>> FailTaskMain(
    const std::vector<uint8_t>& request) {
  return Status::Corruption(std::string(request.begin(), request.end()));
}

StatusOr<std::vector<uint8_t>> SleepEchoTaskMain(
    const std::vector<uint8_t>& request) {
  ByteReader reader(request);
  uint32_t sleep_ms = 0;
  Status s = reader.ReadU32(&sleep_ms);
  if (!s.ok()) return s;
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  return std::vector<uint8_t>(request.begin() + sizeof(sleep_ms),
                              request.end());
}

StatusOr<std::vector<uint8_t>> PingTaskMain(
    const std::vector<uint8_t>& request) {
  return request;
}

StatusOr<std::vector<uint8_t>> StatsPollTaskMain(
    const std::vector<uint8_t>& request) {
  if (!request.empty()) {
    return Status::InvalidArgument("stats poll request carries no payload");
  }
  ByteWriter writer;
  obs::SerializeRegistrySample(obs::MetricsRegistry::Global().Sample(),
                               &writer);
  return writer.Release();
}

StatusOr<std::vector<uint8_t>> BatchTaskMain(
    const std::vector<uint8_t>& request) {
  ByteReader reader(request);
  uint32_t count = 0;
  Status s = reader.ReadU32(&count);
  if (!s.ok()) return s;
  // Every subtask runs before the reply is written, so the reply is sized
  // once from their outcomes. A slot header is 5 bytes, which bounds the
  // slots the envelope can hold whatever count it declares.
  struct Outcome {
    bool ok = false;
    double seconds = 0;
    std::vector<uint8_t> body;  ///< the response, or the status text
  };
  std::vector<Outcome> outcomes;
  outcomes.reserve(std::min<size_t>(count, reader.remaining() / 5));
  std::vector<uint8_t> sub_request;
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind = 0;
    uint32_t len = 0;
    s = reader.ReadU8(&kind);
    if (s.ok()) s = reader.ReadU32(&len);
    if (!s.ok()) return s;
    if (len > reader.remaining()) {
      return Status::Corruption("batch subtask " + std::to_string(i) +
                                " length exceeds the envelope");
    }
    sub_request.assign(reader.cursor(), reader.cursor() + len);
    reader.Advance(len);

    // Nested batches are rejected per slot (an envelope inside an
    // envelope means a buggy master, and unbounded nesting helps nobody);
    // unknown kinds report like the serve loop's unknown-kind error.
    WorkerTask task = kind == static_cast<uint8_t>(RpcTaskKind::kBatchTask)
                          ? nullptr
                          : TaskForKind(static_cast<RpcTaskKind>(kind));
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::vector<uint8_t>> response =
        task == nullptr
            ? StatusOr<std::vector<uint8_t>>(Status::InvalidArgument(
                  "batch subtask kind " + std::to_string(kind) +
                  " is not executable"))
            : task(sub_request);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    Outcome& outcome = outcomes.emplace_back();
    outcome.seconds = seconds;
    outcome.ok = response.ok();
    if (outcome.ok) {
      outcome.body = std::move(response).value();
    } else {
      const std::string msg = response.status().ToString();
      outcome.body.assign(msg.begin(), msg.end());
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("batch envelope has trailing bytes");
  }
  size_t bytes = 0;
  for (const Outcome& outcome : outcomes) {
    bytes += sizeof(uint8_t) + sizeof(double) + sizeof(uint32_t) +
             outcome.body.size();
  }
  std::vector<uint8_t> reply;
  reply.reserve(bytes);
  ByteWriter writer(&reply);
  for (const Outcome& outcome : outcomes) {
    writer.WriteU8(outcome.ok ? 1 : 0);
    writer.WriteDouble(outcome.seconds);
    writer.WriteU32(static_cast<uint32_t>(outcome.body.size()));
    writer.WriteBytes(outcome.body.data(), outcome.body.size());
  }
  return reply;
}

Status ParseBatchTaskResponse(const std::vector<uint8_t>& response,
                              size_t count, std::vector<BatchSlot>* slots) {
  slots->assign(count, BatchSlot());
  ByteReader reader(response);
  for (BatchSlot& slot : *slots) {
    uint8_t ok = 0;
    uint32_t len = 0;
    Status s = reader.ReadU8(&ok);
    if (s.ok()) s = reader.ReadDouble(&slot.compute_seconds);
    if (s.ok()) s = reader.ReadU32(&len);
    if (!s.ok()) return Status::Corruption("batch reply is truncated");
    if (ok > 1) return Status::Corruption("batch reply slot has a bad ok byte");
    if (len > reader.remaining()) {
      return Status::Corruption("batch reply slot exceeds the payload");
    }
    slot.ok = ok == 1;
    slot.body = ConstSpan{reader.cursor(), len};
    reader.Advance(len);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("batch reply has trailing bytes");
  }
  return Status::OK();
}

RpcTaskKind ResolveTaskKind(const WorkerTask& task) {
  const WorkerFn* fn = task.target<WorkerFn>();
  if (fn == nullptr) return RpcTaskKind::kUnknownTask;
  if (*fn == &MpqOptimizer::WorkerMain) return RpcTaskKind::kMpqWorker;
  if (*fn == &EchoTaskMain) return RpcTaskKind::kEchoTask;
  if (*fn == &FailTaskMain) return RpcTaskKind::kFailTask;
  if (*fn == &SleepEchoTaskMain) return RpcTaskKind::kSleepEchoTask;
  if (*fn == &PingTaskMain) return RpcTaskKind::kPingTask;
  if (*fn == &BatchTaskMain) return RpcTaskKind::kBatchTask;
  if (*fn == &StatsPollTaskMain) return RpcTaskKind::kStatsPollTask;
  return RpcTaskKind::kUnknownTask;
}

WorkerTask TaskForKind(RpcTaskKind kind) {
  switch (kind) {
    case RpcTaskKind::kUnknownTask:
      return nullptr;
    case RpcTaskKind::kMpqWorker:
      return WorkerTask(&MpqOptimizer::WorkerMain);
    case RpcTaskKind::kEchoTask:
      return WorkerTask(&EchoTaskMain);
    case RpcTaskKind::kFailTask:
      return WorkerTask(&FailTaskMain);
    case RpcTaskKind::kSleepEchoTask:
      return WorkerTask(&SleepEchoTaskMain);
    case RpcTaskKind::kPingTask:
      return WorkerTask(&PingTaskMain);
    case RpcTaskKind::kBatchTask:
      return WorkerTask(&BatchTaskMain);
    case RpcTaskKind::kStatsPollTask:
      return WorkerTask(&StatsPollTaskMain);
  }
  return nullptr;
}

}  // namespace mpqopt
