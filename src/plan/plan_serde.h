// Copyright 2026 mpqopt authors.
//
// Wire encoding of plan trees. The worker's answer to the master is one
// serialized plan (single-objective) or a serialized Pareto set
// (multi-objective); the master deserializes into its own arena and runs
// FinalPrune. Encoding is pre-order: tag byte, then either the scanned
// table or the two subtrees, then cardinality and cost vector.

#ifndef MPQOPT_PLAN_PLAN_SERDE_H_
#define MPQOPT_PLAN_PLAN_SERDE_H_

#include <cstddef>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "plan/plan.h"

namespace mpqopt {

/// Bytes of the smallest serialized node: a join's tag, cardinality and
/// one-metric cost (a scan adds its table). A payload of n bytes
/// therefore holds at most n / kMinPlanNodeBytes nodes.
inline constexpr size_t kMinPlanNodeBytes = 18;

/// Appends the subtree rooted at `id` to `writer`.
void SerializePlan(const PlanArena& arena, PlanId id, ByteWriter* writer);

/// Reads one plan tree from `reader`, materializing nodes into `arena`.
/// Malformed bytes, including a join nested under kMaxTables - 1 others
/// (no plan over kMaxTables tables nests so deep), are Corruption.
StatusOr<PlanId> DeserializePlan(ByteReader* reader, PlanArena* arena);

/// Serializes a set of plans (count-prefixed); used for Pareto frontiers.
void SerializePlanSet(const PlanArena& arena, const std::vector<PlanId>& ids,
                      ByteWriter* writer);

/// Reads a count-prefixed set of plans into `arena`, reserving room for
/// as many nodes as the unread bytes can hold.
StatusOr<std::vector<PlanId>> DeserializePlanSet(ByteReader* reader,
                                                 PlanArena* arena);

}  // namespace mpqopt

#endif  // MPQOPT_PLAN_PLAN_SERDE_H_
