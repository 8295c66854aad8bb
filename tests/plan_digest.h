// Copyright 2026 mpqopt authors.
//
// Bit-exact digests for the plan-identity pins of the optimizer tests: a
// changed evaluation order in the cost arithmetic, a changed tie-break or
// a changed enumeration order moves a digest, so a change that alters
// plans must update the pinned values on purpose. Each bit pin has a
// shape pin beside it, over the plans' structure alone, so a change that
// moves cost bits on purpose (a new fold order, say) shows whether any
// plan moved with them.

#ifndef MPQOPT_TESTS_PLAN_DIGEST_H_
#define MPQOPT_TESTS_PLAN_DIGEST_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "plan/plan.h"

namespace mpqopt {

/// 64-bit FNV-1a over the raw bytes of the values added.
class Fnv64 {
 public:
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Adds a plan tree, pre-order: table set, algorithm, and the raw bits of
/// the cardinality and of every cost metric.
inline void DigestPlan(const PlanArena& arena, PlanId id, Fnv64* h) {
  const PlanNode& node = arena.node(id);
  h->Add(node.tables.bits());
  h->Add(static_cast<uint8_t>(node.algorithm));
  h->Add(node.cardinality);
  h->Add(node.cost.num_metrics());
  for (int i = 0; i < node.cost.num_metrics(); ++i) h->Add(node.cost[i]);
  if (!node.IsScan()) {
    DigestPlan(arena, node.left, h);
    DigestPlan(arena, node.right, h);
  }
}

/// Adds a plan tree's structure alone, pre-order: table set and
/// algorithm of every node, which fix the tree's shape. No cardinality or
/// cost bit enters it.
inline void DigestPlanShape(const PlanArena& arena, PlanId id, Fnv64* h) {
  const PlanNode& node = arena.node(id);
  h->Add(node.tables.bits());
  h->Add(static_cast<uint8_t>(node.algorithm));
  if (!node.IsScan()) {
    DigestPlanShape(arena, node.left, h);
    DigestPlanShape(arena, node.right, h);
  }
}

}  // namespace mpqopt

#endif  // MPQOPT_TESTS_PLAN_DIGEST_H_
