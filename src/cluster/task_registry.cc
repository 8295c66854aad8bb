// Copyright 2026 mpqopt authors.

#include "cluster/task_registry.h"

#include <chrono>
#include <cstddef>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "common/serialize.h"
#include "mpq/heterogeneous.h"
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
    case RpcTaskKind::kHeteroWorker:
      return "hetero";
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
    case RpcTaskKind::kTracedTask:
      return "traced";
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
  ByteWriter writer;
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
    std::vector<uint8_t> sub_request(reader.cursor(), reader.cursor() + len);
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
    writer.WriteU8(response.ok() ? 1 : 0);
    writer.WriteDouble(seconds);
    if (response.ok()) {
      const std::vector<uint8_t>& body = response.value();
      writer.WriteU32(static_cast<uint32_t>(body.size()));
      writer.WriteBytes(body.data(), body.size());
    } else {
      const std::string msg = response.status().ToString();
      writer.WriteU32(static_cast<uint32_t>(msg.size()));
      writer.WriteBytes(reinterpret_cast<const uint8_t*>(msg.data()),
                        msg.size());
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("batch envelope has trailing bytes");
  }
  return writer.Release();
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

StatusOr<std::vector<uint8_t>> TracedTaskMain(
    const std::vector<uint8_t>& request) {
  const auto entry = std::chrono::steady_clock::now();
  ByteReader reader(request);
  uint64_t trace_id = 0;
  uint8_t inner_kind = 0;
  Status s = reader.ReadU64(&trace_id);
  if (s.ok()) s = reader.ReadU8(&inner_kind);
  if (!s.ok()) return s;
  if (inner_kind == static_cast<uint8_t>(RpcTaskKind::kTracedTask) ||
      inner_kind == static_cast<uint8_t>(RpcTaskKind::kBatchTask)) {
    return Status::InvalidArgument(
        std::string("traced envelope cannot wrap ") +
        RpcTaskKindName(static_cast<RpcTaskKind>(inner_kind)));
  }
  WorkerTask task = TaskForKind(static_cast<RpcTaskKind>(inner_kind));
  if (task == nullptr) {
    return Status::InvalidArgument("traced subtask kind " +
                                   std::to_string(inner_kind) +
                                   " is not executable");
  }
  std::vector<uint8_t> inner_request(reader.cursor(),
                                     reader.cursor() + reader.remaining());

  const auto rel_ns = [entry](std::chrono::steady_clock::time_point t) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - entry)
            .count());
  };
  const auto compute_start = std::chrono::steady_clock::now();
  StatusOr<std::vector<uint8_t>> response = task(inner_request);
  const auto compute_end = std::chrono::steady_clock::now();
  // A failed subtask fails the whole envelope: upstream sees exactly the
  // status the unwrapped task would have produced.
  if (!response.ok()) return response.status();

  struct WireSpan {
    const char* name;
    uint64_t start_rel_ns;
    uint64_t dur_ns;
  };
  const auto now = std::chrono::steady_clock::now();
  const WireSpan spans[] = {
      {"worker.serve", 0, rel_ns(now)},
      {"worker.compute", rel_ns(compute_start),
       rel_ns(compute_end) - rel_ns(compute_start)},
  };

  ByteWriter writer;
  ByteWriter block;
  block.WriteU64(trace_id);
  block.WriteU32(static_cast<uint32_t>(std::size(spans)));
  for (const WireSpan& span : spans) {
    const size_t name_len = std::char_traits<char>::length(span.name);
    block.WriteU8(static_cast<uint8_t>(name_len));
    block.WriteBytes(reinterpret_cast<const uint8_t*>(span.name), name_len);
    block.WriteU64(span.start_rel_ns);
    block.WriteU64(span.dur_ns);
  }
  const std::vector<uint8_t> block_bytes = block.Release();
  writer.WriteU32(static_cast<uint32_t>(block_bytes.size()));
  writer.WriteBytes(block_bytes.data(), block_bytes.size());
  const std::vector<uint8_t>& body = response.value();
  writer.WriteBytes(body.data(), body.size());
  return writer.Release();
}

void WriteTracedTaskPrefix(uint64_t trace_id, RpcTaskKind inner_kind,
                           ByteWriter* writer) {
  writer->WriteU64(trace_id);
  writer->WriteU8(static_cast<uint8_t>(inner_kind));
}

Status ParseTracedTaskResponse(const std::vector<uint8_t>& response,
                               uint64_t* trace_id,
                               std::vector<ImportedSpan>* spans,
                               std::vector<uint8_t>* inner_body) {
  ByteReader reader(response);
  uint32_t block_len = 0;
  Status s = reader.ReadU32(&block_len);
  if (!s.ok()) return s;
  if (block_len > reader.remaining()) {
    return Status::Corruption("traced response block exceeds the reply");
  }
  // The spans are parsed from the block alone, never from the body.
  const size_t body_offset = sizeof(uint32_t) + block_len;
  ByteReader block(reader.cursor(), block_len);
  s = block.ReadU64(trace_id);
  uint32_t count = 0;
  if (s.ok()) s = block.ReadU32(&count);
  if (!s.ok()) return s;
  // A span is at least a u8 name length and two u64 timestamps.
  constexpr size_t kMinSpanBytes = sizeof(uint8_t) + 2 * sizeof(uint64_t);
  if (count > block.remaining() / kMinSpanBytes) {
    return Status::Corruption("traced span count exceeds the block");
  }
  spans->clear();
  spans->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t name_len = 0;
    s = block.ReadU8(&name_len);
    if (!s.ok()) return s;
    if (name_len > block.remaining()) {
      return Status::Corruption("traced span name exceeds the block");
    }
    ImportedSpan span;
    span.name.assign(reinterpret_cast<const char*>(block.cursor()), name_len);
    block.Advance(name_len);
    s = block.ReadU64(&span.start_rel_ns);
    if (s.ok()) s = block.ReadU64(&span.dur_ns);
    if (!s.ok()) return s;
    spans->push_back(std::move(span));
  }
  if (!block.AtEnd()) {
    return Status::Corruption("traced spans do not end at the block end");
  }
  inner_body->assign(response.begin() + static_cast<ptrdiff_t>(body_offset),
                     response.end());
  return Status::OK();
}

RpcTaskKind ResolveTaskKind(const WorkerTask& task) {
  const WorkerFn* fn = task.target<WorkerFn>();
  if (fn == nullptr) return RpcTaskKind::kUnknownTask;
  if (*fn == &MpqOptimizer::WorkerMain) return RpcTaskKind::kMpqWorker;
  if (*fn == &HeteroMpqOptimizer::WorkerMain) {
    return RpcTaskKind::kHeteroWorker;
  }
  if (*fn == &EchoTaskMain) return RpcTaskKind::kEchoTask;
  if (*fn == &FailTaskMain) return RpcTaskKind::kFailTask;
  if (*fn == &SleepEchoTaskMain) return RpcTaskKind::kSleepEchoTask;
  if (*fn == &PingTaskMain) return RpcTaskKind::kPingTask;
  if (*fn == &BatchTaskMain) return RpcTaskKind::kBatchTask;
  if (*fn == &TracedTaskMain) return RpcTaskKind::kTracedTask;
  if (*fn == &StatsPollTaskMain) return RpcTaskKind::kStatsPollTask;
  return RpcTaskKind::kUnknownTask;
}

WorkerTask TaskForKind(RpcTaskKind kind) {
  switch (kind) {
    case RpcTaskKind::kUnknownTask:
      return nullptr;
    case RpcTaskKind::kMpqWorker:
      return WorkerTask(&MpqOptimizer::WorkerMain);
    case RpcTaskKind::kHeteroWorker:
      return WorkerTask(&HeteroMpqOptimizer::WorkerMain);
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
    case RpcTaskKind::kTracedTask:
      return WorkerTask(&TracedTaskMain);
    case RpcTaskKind::kStatsPollTask:
      return WorkerTask(&StatsPollTaskMain);
  }
  return nullptr;
}

}  // namespace mpqopt
