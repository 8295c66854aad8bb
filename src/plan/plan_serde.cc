// Copyright 2026 mpqopt authors.

#include "plan/plan_serde.h"

#include <cstring>

namespace mpqopt {
namespace {

/// The most joins a join of a valid plan is nested under: a plan over at
/// most kMaxTables tables has at most kMaxTables - 1 joins on any path
/// from its root.
constexpr int kMaxJoinDepth = kMaxTables - 2;

constexpr char kPastEnd[] = "read past end of buffer";

/// Decodes the plan at `*cursor`, `depth` joins below the root, into
/// `arena`, reading nothing at or past `end`. On success sets `*out` and
/// moves `*cursor` past the plan, and returns null; otherwise returns
/// what is wrong. It checks the node tag, the scan table's range, that
/// join operands are disjoint, the cost arity and the nesting depth, so
/// bytes from a peer cannot crash the caller or exhaust its stack. Errors
/// are messages, not Status, so the per-node path builds none.
const char* DecodePlan(const uint8_t** cursor, const uint8_t* end, int depth,
                       PlanArena* arena, PlanId* out) {
  const uint8_t* p = *cursor;
  if (p >= end) return kPastEnd;
  const uint8_t tag = *p++;
  if (tag > static_cast<uint8_t>(JoinAlgorithm::kSortMergeJoin)) {
    return "bad plan node tag";
  }
  const auto alg = static_cast<JoinAlgorithm>(tag);
  PlanId left = kInvalidPlanId;
  PlanId right = kInvalidPlanId;
  uint32_t table = 0;
  if (alg == JoinAlgorithm::kScan) {
    if (end - p < 4) return kPastEnd;
    std::memcpy(&table, p, 4);
    p += 4;
    if (table >= static_cast<uint32_t>(kMaxTables)) {
      return "scan table index out of range";
    }
  } else {
    if (depth > kMaxJoinDepth) return "plan nests too deep";
    *cursor = p;
    if (const char* error = DecodePlan(cursor, end, depth + 1, arena, &left)) {
      return error;
    }
    if (const char* error =
            DecodePlan(cursor, end, depth + 1, arena, &right)) {
      return error;
    }
    p = *cursor;
    if (arena->node(left).tables.Intersects(arena->node(right).tables)) {
      return "join operands overlap";
    }
  }
  if (end - p < 9) return kPastEnd;  // cardinality + cost arity
  double cardinality = 0;
  std::memcpy(&cardinality, p, 8);
  p += 8;
  const uint8_t arity = *p++;
  if (arity < 1 || arity > kMaxCostMetrics) {
    return "cost vector arity out of range";
  }
  if (end - p < 8 * static_cast<ptrdiff_t>(arity)) return kPastEnd;
  CostVector cost(arity);
  for (int i = 0; i < arity; ++i) {
    std::memcpy(&cost[i], p, 8);
    p += 8;
  }
  *cursor = p;
  *out = alg == JoinAlgorithm::kScan
             ? arena->MakeScan(static_cast<int>(table), cardinality, cost)
             : arena->MakeJoin(alg, left, right, cardinality, cost);
  return nullptr;
}

/// Decodes one plan from `reader` and advances it past the plan.
const char* ReadPlan(ByteReader* reader, PlanArena* arena, PlanId* out) {
  const uint8_t* cursor = reader->cursor();
  const char* error =
      DecodePlan(&cursor, cursor + reader->remaining(), 0, arena, out);
  if (error == nullptr) {
    reader->Advance(static_cast<size_t>(cursor - reader->cursor()));
  }
  return error;
}

}  // namespace

void SerializePlan(const PlanArena& arena, PlanId id, ByteWriter* writer) {
  const PlanNode& node = arena.node(id);
  writer->WriteU8(static_cast<uint8_t>(node.algorithm));
  if (node.IsScan()) {
    writer->WriteU32(static_cast<uint32_t>(node.table));
  } else {
    SerializePlan(arena, node.left, writer);
    SerializePlan(arena, node.right, writer);
  }
  writer->WriteDouble(node.cardinality);
  node.cost.Serialize(writer);
}

StatusOr<PlanId> DeserializePlan(ByteReader* reader, PlanArena* arena) {
  PlanId id = kInvalidPlanId;
  if (const char* error = ReadPlan(reader, arena, &id)) {
    return Status::Corruption(error);
  }
  return id;
}

void SerializePlanSet(const PlanArena& arena, const std::vector<PlanId>& ids,
                      ByteWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(ids.size()));
  for (PlanId id : ids) SerializePlan(arena, id, writer);
}

StatusOr<std::vector<PlanId>> DeserializePlanSet(ByteReader* reader,
                                                 PlanArena* arena) {
  uint32_t count = 0;
  Status s = reader->ReadU32(&count);
  if (!s.ok()) return s;
  // The bytes received bound the plans and their nodes, so neither
  // reservation below can exceed what the peer actually sent.
  const size_t max_nodes = reader->remaining() / kMinPlanNodeBytes;
  if (count > max_nodes) return Status::Corruption("plan set too large");
  std::vector<PlanId> ids;
  ids.reserve(count);
  arena->Reserve(arena->size() + max_nodes + 1);
  for (uint32_t i = 0; i < count; ++i) {
    PlanId id = kInvalidPlanId;
    if (const char* error = ReadPlan(reader, arena, &id)) {
      return Status::Corruption(error);
    }
    ids.push_back(id);
  }
  return ids;
}

}  // namespace mpqopt
