// Copyright 2026 mpqopt authors.

#include "mpq/mpq.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "common/serialize.h"
#include "obs/trace.h"
#include "optimizer/pruning.h"
#include "plan/plan_serde.h"

namespace mpqopt {
namespace {

/// The report leading each worker's response: its DpStats.
void SerializeReport(const DpStats& stats, ByteWriter* writer) {
  writer->WriteI64(stats.admissible_sets);
  writer->WriteI64(stats.splits_tried);
  writer->WriteI64(stats.plans_costed);
  writer->WriteDouble(stats.seconds);
}

Status DeserializeReport(ByteReader* reader, DpStats* stats) {
  Status s;
  if (!(s = reader->ReadI64(&stats->admissible_sets)).ok()) return s;
  if (!(s = reader->ReadI64(&stats->splits_tried)).ok()) return s;
  if (!(s = reader->ReadI64(&stats->plans_costed)).ok()) return s;
  return reader->ReadDouble(&stats->seconds);
}

}  // namespace

MpqOptimizer::MpqOptimizer(MpqOptions options) : options_(std::move(options)) {
  if (options_.backend == nullptr) options_.backend = DefaultBackend();
}

namespace {

/// The queries each thread decoded last, with the bytes each was decoded
/// from. A pool thread alternates between concurrent clients' rounds, so
/// it needs one entry per client it serves in turn.
constexpr size_t kQueryCacheEntries = 4;
/// Encodings longer than this are decoded on every task instead. A
/// decoded query takes about its encoding's size plus 96 B per table, so
/// an entry is at most about 38 KiB (an 8-table query's under 2 KiB) and a
/// thread's cache at most about 150 KiB.
constexpr size_t kMaxCachedQueryBytes = size_t{16} << 10;

struct DecodedQuery {
  DecodedQuery(const uint8_t* begin, const uint8_t* end, Query q)
      : bytes(begin, end), query(std::move(q)) {}

  std::vector<uint8_t> bytes;  ///< exactly what Query::Deserialize read
  Query query;
};

/// Decodes the query at the head of `reader` through this thread's cache
/// and points `*query` at it, or at `*uncached` when its encoding is too
/// long to keep; it stays valid until this thread's next call.
/// Query::Deserialize reads a self-delimiting encoding front to back, so
/// a request that starts with an entry's bytes decodes to that entry's
/// query, which passed every check when it was decoded, and no two
/// entries can match one request.
Status DecodeQuery(ByteReader* reader, Query* uncached, const Query** query) {
  thread_local std::vector<std::unique_ptr<DecodedQuery>> cache;
  const uint8_t* head = reader->cursor();
  const size_t available = reader->remaining();
  auto it = std::find_if(cache.begin(), cache.end(),
                         [&](const std::unique_ptr<DecodedQuery>& e) {
                           return e->bytes.size() <= available &&
                                  std::memcmp(e->bytes.data(), head,
                                              e->bytes.size()) == 0;
                         });
  if (it != cache.end()) {
    reader->Advance((*it)->bytes.size());
    std::rotate(cache.begin(), it, it + 1);
  } else {
    StatusOr<Query> decoded = Query::Deserialize(reader);
    if (!decoded.ok()) return decoded.status();
    if (static_cast<size_t>(reader->cursor() - head) > kMaxCachedQueryBytes) {
      *uncached = std::move(decoded).value();
      *query = uncached;
      return Status::OK();
    }
    if (cache.size() == kQueryCacheEntries) cache.pop_back();
    cache.insert(cache.begin(),
                 std::make_unique<DecodedQuery>(head, reader->cursor(),
                                                std::move(decoded).value()));
  }
  *query = &cache.front()->query;
  return Status::OK();
}

}  // namespace

void MpqOptimizer::SerializeOptions(const MpqOptions& options,
                                    ByteWriter* writer) {
  writer->WriteU64(options.num_workers);
  writer->WriteU8(static_cast<uint8_t>(options.space));
  writer->WriteU8(static_cast<uint8_t>(options.objective));
  writer->WriteU8(options.interesting_orders ? 1 : 0);
  writer->WriteDouble(options.alpha);
  writer->WriteDouble(options.cost_options.block_size);
  writer->WriteDouble(options.cost_options.hash_constant);
  writer->WriteDouble(options.cost_options.output_cost_factor);
  writer->WriteU64(static_cast<uint64_t>(options.max_memo_entries));
  if (options.interesting_orders) {
    writer->WriteDouble(options.cost_options.sorted_scan_factor);
  }
}

std::vector<uint8_t> MpqOptimizer::BuildRequest(const Query& query,
                                                uint64_t partition_id,
                                                const MpqOptions& options) {
  ByteWriter writer;
  query.Serialize(&writer);
  writer.WriteU64(partition_id);
  SerializeOptions(options, &writer);
  return writer.Release();
}

std::vector<std::vector<uint8_t>> MpqOptimizer::BuildRequests(
    const Query& query, const MpqOptions& options) {
  const uint64_t m = options.num_workers;
  // Serialize the shared parts once; each request is then one pre-sized
  // buffer filled by two splices and the partition id — the query (the
  // dominant cost for real statistics) is encoded once per run instead
  // of once per partition.
  ByteWriter prefix_writer;
  query.Serialize(&prefix_writer);
  const std::vector<uint8_t>& prefix = prefix_writer.buffer();
  ByteWriter suffix_writer;
  SerializeOptions(options, &suffix_writer);
  const std::vector<uint8_t>& suffix = suffix_writer.buffer();

  std::vector<std::vector<uint8_t>> requests(m);
  for (uint64_t part = 0; part < m; ++part) {
    std::vector<uint8_t>& out = requests[part];
    out.reserve(prefix.size() + sizeof(uint64_t) + suffix.size());
    ByteWriter writer(&out);
    writer.WriteBytes(prefix.data(), prefix.size());
    writer.WriteU64(part);
    writer.WriteBytes(suffix.data(), suffix.size());
  }
  return requests;
}

StatusOr<std::vector<uint8_t>> MpqOptimizer::WorkerMain(
    const std::vector<uint8_t>& request) {
  ByteReader reader(request);
  Query uncached;
  const Query* query = nullptr;
  Status s = DecodeQuery(&reader, &uncached, &query);
  if (!s.ok()) return s;

  uint64_t partition_id = 0;
  uint64_t num_partitions = 0;
  uint8_t space_raw = 0;
  uint8_t objective_raw = 0;
  uint8_t interesting_orders = 0;
  DpConfig config;
  if (!(s = reader.ReadU64(&partition_id)).ok()) return s;
  if (!(s = reader.ReadU64(&num_partitions)).ok()) return s;
  if (!(s = reader.ReadU8(&space_raw)).ok()) return s;
  if (!(s = reader.ReadU8(&objective_raw)).ok()) return s;
  if (!(s = reader.ReadU8(&interesting_orders)).ok()) return s;
  if (!(s = reader.ReadDouble(&config.alpha)).ok()) return s;
  if (!(s = reader.ReadDouble(&config.cost_options.block_size)).ok()) return s;
  if (!(s = reader.ReadDouble(&config.cost_options.hash_constant)).ok()) {
    return s;
  }
  if (!(s = reader.ReadDouble(&config.cost_options.output_cost_factor)).ok()) {
    return s;
  }
  uint64_t max_memo = 0;
  if (!(s = reader.ReadU64(&max_memo)).ok()) return s;
  if (interesting_orders != 0 &&
      !(s = reader.ReadDouble(&config.cost_options.sorted_scan_factor))
           .ok()) {
    return s;
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("bytes after the request's options");
  }
  if (space_raw > 1) return Status::Corruption("bad plan space tag");
  if (objective_raw > 1) return Status::Corruption("bad objective tag");
  config.space = static_cast<PlanSpace>(space_raw);
  config.objective = static_cast<Objective>(objective_raw);
  config.interesting_orders = interesting_orders != 0;
  config.max_memo_entries = static_cast<int64_t>(max_memo);

  // Decode the partition id into this worker's join-order constraints
  // (paper Algorithm 3) and run the constrained DP (Algorithm 2).
  StatusOr<ConstraintSet> constraints = ConstraintSet::FromPartitionId(
      query->num_tables(), config.space, partition_id, num_partitions);
  if (!constraints.ok()) return constraints.status();
  StatusOr<DpResult> dp = RunPartitionDp(*query, constraints.value(), config);
  if (!dp.ok()) return dp.status();
  const DpResult& result = dp.value();

  // One allocation for the whole response: the 32-byte report, the plan
  // count, and each arena node serialized once (a scan, the larger kind,
  // is tag, table, cardinality and arity, then 8 bytes per metric).
  std::vector<uint8_t> response;
  response.reserve(32 + 4 +
                   result.arena.size() *
                       (14 + 8 * CostModel(config.objective).num_metrics()));
  ByteWriter writer(&response);
  SerializeReport(result.stats, &writer);
  SerializePlanSet(result.arena, result.best, &writer);
  return response;
}

StatusOr<MpqResult> MpqOptimizer::FinalizeResponses(
    const std::vector<std::vector<uint8_t>>& responses,
    const MpqOptions& options) {
  const size_t m = responses.size();
  MpqResult result;
  result.worker_seconds.resize(m);
  result.worker_memo_sets.resize(m);
  // Every response decodes into one scratch arena and is pruned before
  // the next is read. ParetoInsert is order-dependent (alpha-dominance
  // rejection, then weak-dominance eviction, then append), so the prune
  // must see the plans in partition order; only the winners are copied
  // into the result, which keeps plan-cache entries minimal. The scratch
  // arena is sized once for every node the responses can hold, so no
  // DeserializePlanSet call below grows it.
  PlanArena scratch;
  const int num_metrics = CostModel(options.objective).num_metrics();
  size_t response_bytes = 0;
  for (const std::vector<uint8_t>& response : responses) {
    response_bytes += response.size();
  }
  scratch.Reserve(response_bytes / kMinPlanNodeBytes + m);
  std::vector<PlanId> winners;
  const auto cost_of = [&scratch](PlanId id) -> const CostVector& {
    return scratch.node(id).cost;
  };
  for (size_t part = 0; part < m; ++part) {
    ByteReader reader(responses[part]);
    DpStats report;
    Status s = DeserializeReport(&reader, &report);
    if (!s.ok()) return s;
    StatusOr<std::vector<PlanId>> plans = DeserializePlanSet(&reader, &scratch);
    if (!plans.ok()) return plans.status();
    if (!reader.AtEnd()) {
      return Status::Corruption("bytes after the response's plan set");
    }

    result.worker_seconds[part] = report.seconds;
    result.worker_memo_sets[part] = report.admissible_sets;
    result.total_splits += report.splits_tried;
    result.total_plans_costed += report.plans_costed;
    if (report.seconds > result.max_worker_seconds) {
      result.max_worker_seconds = report.seconds;
    }
    if (result.worker_memo_sets[part] > result.max_worker_memo_sets) {
      result.max_worker_memo_sets = result.worker_memo_sets[part];
    }

    // FinalPrune (paper Algorithm 1): compare partition-optimal plans,
    // whose costs must all carry the objective's metrics.
    for (PlanId id : plans.value()) {
      if (cost_of(id).num_metrics() != num_metrics) {
        return Status::Corruption(
            "plan cost arity differs from the objective's");
      }
      if (options.objective == Objective::kTime) {
        if (winners.empty() ||
            cost_of(id).time() < cost_of(winners[0]).time()) {
          winners.assign(1, id);
        }
      } else {
        ParetoInsert(&winners, id, cost_of, options.alpha);
      }
    }
  }
  if (winners.empty()) {
    return Status::Internal("no plan returned by any worker");
  }
  result.best.reserve(winners.size());
  for (PlanId id : winners) {
    result.best.push_back(CopyPlan(scratch, id, &result.arena));
  }
  return result;
}

StatusOr<MpqResult> MpqOptimizer::Optimize(const Query& query) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  const uint64_t m = options_.num_workers;
  valid = ValidateNumWorkers(m, query.num_tables(), options_.space);
  if (!valid.ok()) return valid;

  // Phase 1 (master): build the per-partition requests in one batch
  // (the query is serialized once, not once per partition).
  const auto serialize_start = std::chrono::steady_clock::now();
  std::vector<std::vector<uint8_t>> requests;
  {
    obs::Span serialize_span("mpq.serialize");
    requests = BuildRequests(query, options_);
  }
  const auto serialize_end = std::chrono::steady_clock::now();

  // Phase 2 (workers): one task per partition, no shared state.
  std::vector<WorkerTask> tasks(m, WorkerTask(&MpqOptimizer::WorkerMain));
  StatusOr<RoundResult> round_or = Status::Internal("round not run");
  {
    obs::Span round_span("mpq.round");
    round_or = options_.backend->RunRound(tasks, requests);
  }
  if (!round_or.ok()) return round_or.status();
  RoundResult& round = round_or.value();

  // Phase 3 (master): decode + final prune.
  const auto merge_start = std::chrono::steady_clock::now();
  StatusOr<MpqResult> finalized = Status::Internal("round not finalized");
  {
    obs::Span finalize_span("mpq.finalize");
    finalized = FinalizeResponses(round.responses, options_);
  }
  if (!finalized.ok()) return finalized.status();
  MpqResult result = std::move(finalized).value();
  const auto merge_end = std::chrono::steady_clock::now();

  result.master_seconds =
      std::chrono::duration<double>(serialize_end - serialize_start).count() +
      std::chrono::duration<double>(merge_end - merge_start).count();
  result.simulated_seconds =
      ModeledRoundSeconds(options_.network, requests, round.responses,
                          round.compute_seconds) +
      result.master_seconds;
  result.wall_seconds = round.wall_seconds + result.master_seconds;
  result.network_bytes = round.traffic.bytes_sent;
  result.network_messages = round.traffic.messages;
  return result;
}

}  // namespace mpqopt
