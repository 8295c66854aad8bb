// Copyright 2026 mpqopt authors.

#include "mpq/heterogeneous.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/serialize.h"
#include "plan/plan_serde.h"

namespace mpqopt {

std::vector<PartitionShare> AssignPartitions(const std::vector<double>& speeds,
                                             uint64_t num_partitions) {
  MPQOPT_CHECK(!speeds.empty());
  double total_speed = 0;
  for (double s : speeds) {
    MPQOPT_CHECK_GT(s, 0);
    total_speed += s;
  }
  const size_t w = speeds.size();
  // Largest-remainder apportionment of integer partition counts.
  std::vector<uint64_t> counts(w, 0);
  std::vector<std::pair<double, size_t>> remainders;
  uint64_t assigned = 0;
  for (size_t i = 0; i < w; ++i) {
    const double exact =
        static_cast<double>(num_partitions) * speeds[i] / total_speed;
    counts[i] = static_cast<uint64_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - static_cast<double>(counts[i]), i});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t r = 0; assigned < num_partitions; ++r, ++assigned) {
    ++counts[remainders[r % w].second];
  }
  std::vector<PartitionShare> shares(w);
  uint64_t next = 0;
  for (size_t i = 0; i < w; ++i) {
    shares[i].begin = next;
    next += counts[i];
    shares[i].end = next;
  }
  MPQOPT_CHECK_EQ(next, num_partitions);
  return shares;
}

HeteroMpqOptimizer::HeteroMpqOptimizer(MpqOptions options,
                                       std::vector<double> speeds)
    : options_(std::move(options)), speeds_(std::move(speeds)) {
  if (options_.backend == nullptr) options_.backend = DefaultBackend();
}

std::vector<uint8_t> HeteroMpqOptimizer::BuildRequest(
    const Query& query, PartitionShare share, const MpqOptions& options) {
  // Base request for the first partition of the range, plus the range end;
  // the worker re-derives constraints per partition id in the range.
  std::vector<uint8_t> request =
      MpqOptimizer::BuildRequest(query, share.begin, options);
  ByteWriter writer;
  writer.WriteU64(share.end);
  request.insert(request.end(), writer.buffer().begin(),
                 writer.buffer().end());
  return request;
}

StatusOr<std::vector<uint8_t>> HeteroMpqOptimizer::WorkerMain(
    const std::vector<uint8_t>& request) {
  // The trailing u64 is the range end; everything before it is a regular
  // MPQ request for the range's first partition.
  if (request.size() < 8) return Status::Corruption("short hetero request");
  ByteReader tail(request.data() + request.size() - 8, 8);
  uint64_t end = 0;
  Status s = tail.ReadU64(&end);
  if (!s.ok()) return s;
  std::vector<uint8_t> base(request.begin(), request.end() - 8);

  // Locate the partition-id field: it sits immediately after the query
  // payload. Re-encode per partition by patching that field.
  // Layout (see MpqOptimizer::BuildRequest): query | u64 part | u64 m | ...
  // We find the offset by serializing the query from the request itself.
  ByteReader probe(base);
  StatusOr<Query> query = Query::Deserialize(&probe);
  if (!query.ok()) return query.status();
  const size_t part_offset = base.size() - probe.remaining();
  // Parse the header fields following the query to recover the range
  // start and the pruning alpha for the worker-local final prune.
  uint64_t begin = 0, m = 0;
  uint8_t space = 0, objective = 0, io = 0;
  double alpha = 10.0;
  if (!(s = probe.ReadU64(&begin)).ok()) return s;
  if (!(s = probe.ReadU64(&m)).ok()) return s;
  if (!(s = probe.ReadU8(&space)).ok()) return s;
  if (!(s = probe.ReadU8(&objective)).ok()) return s;
  if (!(s = probe.ReadU8(&io)).ok()) return s;
  if (!(s = probe.ReadDouble(&alpha)).ok()) return s;
  if (end < begin) return Status::Corruption("inverted partition range");

  std::vector<std::vector<uint8_t>> replies;
  for (uint64_t part = begin; part < end; ++part) {
    // Patch the partition id in place and delegate to the homogeneous
    // worker logic (identical wire semantics per partition).
    std::vector<uint8_t> one = base;
    ByteWriter id;
    id.WriteU64(part);
    std::copy(id.buffer().begin(), id.buffer().end(),
              one.begin() + static_cast<ptrdiff_t>(part_offset));
    StatusOr<std::vector<uint8_t>> reply = MpqOptimizer::WorkerMain(one);
    if (!reply.ok()) return reply.status();
    replies.push_back(std::move(reply).value());
  }

  // Worker-local final prune across the partitions of this range, by the
  // master's own Phase-3 merge. An empty share (a legitimately idle
  // worker) keeps the default result: zero counters, an empty plan set.
  MpqResult range;
  double seconds = 0;
  if (!replies.empty()) {
    MpqOptions options;
    options.objective = static_cast<Objective>(objective);
    options.alpha = alpha;
    StatusOr<MpqResult> pruned =
        MpqOptimizer::FinalizeResponses(replies, options);
    if (!pruned.ok()) return pruned.status();
    range = std::move(pruned).value();
    for (double part_seconds : range.worker_seconds) seconds += part_seconds;
  }

  ByteWriter writer;
  writer.WriteU64(static_cast<uint64_t>(range.max_worker_memo_sets));
  writer.WriteU64(static_cast<uint64_t>(range.total_splits));
  writer.WriteU64(static_cast<uint64_t>(range.total_plans_costed));
  writer.WriteDouble(seconds);
  SerializePlanSet(range.arena, range.best, &writer);
  return writer.Release();
}

StatusOr<MpqResult> HeteroMpqOptimizer::Optimize(const Query& query) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  const uint64_t partitions = options_.num_workers;
  valid = ValidateNumWorkers(partitions, query.num_tables(), options_.space);
  if (!valid.ok()) return valid;
  if (speeds_.empty()) {
    return Status::InvalidArgument("no workers");
  }

  const auto serialize_start = std::chrono::steady_clock::now();
  const std::vector<PartitionShare> shares =
      AssignPartitions(speeds_, partitions);
  std::vector<std::vector<uint8_t>> requests;
  requests.reserve(shares.size());
  for (const PartitionShare& share : shares) {
    requests.push_back(BuildRequest(query, share, options_));
  }
  const auto serialize_end = std::chrono::steady_clock::now();

  std::vector<WorkerTask> tasks(shares.size(),
                                WorkerTask(&HeteroMpqOptimizer::WorkerMain));
  StatusOr<RoundResult> round_or = options_.backend->RunRound(tasks, requests);
  if (!round_or.ok()) return round_or.status();
  RoundResult& round = round_or.value();

  const auto merge_start = std::chrono::steady_clock::now();
  StatusOr<MpqResult> finalized =
      MpqOptimizer::FinalizeResponses(round.responses, options_);
  if (!finalized.ok()) return finalized.status();
  MpqResult result = std::move(finalized).value();
  // Simulated heterogeneity: host-measured compute scaled by each
  // worker's speed factor, so the maximum is taken again.
  result.max_worker_seconds = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    result.worker_seconds[i] /= speeds_[i];
    result.max_worker_seconds =
        std::max(result.max_worker_seconds, result.worker_seconds[i]);
  }
  const auto merge_end = std::chrono::steady_clock::now();

  result.master_seconds =
      std::chrono::duration<double>(serialize_end - serialize_start).count() +
      std::chrono::duration<double>(merge_end - merge_start).count();
  result.simulated_seconds =
      ModeledRoundSeconds(options_.network, requests, round.responses,
                          result.worker_seconds) +
      result.master_seconds;
  result.wall_seconds = round.wall_seconds + result.master_seconds;
  result.network_bytes = round.traffic.bytes_sent;
  result.network_messages = round.traffic.messages;
  return result;
}

}  // namespace mpqopt
