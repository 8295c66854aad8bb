// Copyright 2026 mpqopt authors.
//
// SmaNode — one SMA worker replica: the FULL memotable of one simulated
// shared-nothing node (the crux of the baseline: the shared-memory
// algorithm's common data structure must be replicated per node), plus
// the per-level worker computation over it. The replica is a ScalarDp or
// ParetoDp (optimizer/partition_dp.h) over the unconstrained index, so
// SMA costs and prunes plans with the MPQ workers' kernels and extracts
// them with the shared BuildPlan; only its split order (ascending inner
// table, SubsetEnumerator for bushy plans) and its set-at-a-time chunks
// are its own.
//
// Extracted from sma.cc so the replica can live as remote session state:
// the stateful-task registry (cluster/session/stateful_task.h) registers
// SmaNode as StatefulTaskKind::kSmaNode, which lets a session-capable
// backend — including RpcBackend over real sockets — host the replicas
// in worker processes. The node therefore OWNS its query and options
// (it is reconstructed on a remote worker from the serialized open
// request) and speaks a tiny self-describing step protocol:
//
//   open request   serialized query + SmaNodeOptions
//                  (BuildOpenRequest / FromOpenRequest)
//   step request   u8 op, then the op's body (HandleStep):
//                    kSmaComputeChunkOp   count-prefixed u64 table-set
//                                         bit patterns -> serialized
//                                         optimal entries (pure read of
//                                         the replica)
//                    kSmaApplyBroadcastOp a level's concatenated entries
//                                         -> empty (the one mutating,
//                                         deterministic state transition
//                                         — replayable for recovery)

#ifndef MPQOPT_SMA_SMA_NODE_H_
#define MPQOPT_SMA_SMA_NODE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/query.h"
#include "common/macros.h"
#include "common/status.h"
#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "optimizer/dp.h"
#include "optimizer/partition_dp.h"
#include "partition/partition_index.h"
#include "plan/plan.h"

namespace mpqopt {

/// The plan-affecting knobs a replica needs. SmaOptions extends them with
/// the execution knobs (backend, num_workers, network, max_tables), which
/// stay master-side so every node's open request is identical and tiny.
struct SmaNodeOptions {
  PlanSpace space = PlanSpace::kLinear;
  Objective objective = Objective::kTime;
  double alpha = 10.0;
  CostModelOptions cost_options;
};

/// Step-request op tags (first byte of every HandleStep request).
constexpr uint8_t kSmaComputeChunkOp = 0;
constexpr uint8_t kSmaApplyBroadcastOp = 1;

/// One simulated shared-nothing node running SMA worker code. Its memo is
/// addressed by bit pattern: with no constraint a set's rank is its bits.
class SmaNode {
 public:
  /// Constructs the replica directly (master replica / in-process use).
  SmaNode(Query query, const SmaNodeOptions& options);
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(SmaNode);

  /// Serialized (query, options) — the session open request every node
  /// is reconstructed from.
  static std::vector<uint8_t> BuildOpenRequest(const Query& query,
                                               const SmaNodeOptions& options);

  /// Reconstructs a replica from an open request (worker side).
  /// Corruption for a space or objective tag above 1, an alpha below 1
  /// (or NaN) with the time+buffer objective, or bytes after the options.
  static StatusOr<std::unique_ptr<SmaNode>> FromOpenRequest(
      const std::vector<uint8_t>& request);

  /// Dispatches one step request by its op byte (see header comment).
  StatusOr<std::vector<uint8_t>> HandleStep(
      const std::vector<uint8_t>& request);

  /// Computes the optimal plan(s) for every set in `assignment`
  /// (count-prefixed u64 bit patterns) with the replica's DP kernels and
  /// returns the serialized entries. Pure: only reads the memo replica.
  /// Fails with Corruption (instead of aborting) when a set's sub-plans
  /// are not in the replica yet — a remote master stepping levels out of
  /// order must fail its own step, never the worker process.
  StatusOr<std::vector<uint8_t>> ComputeChunk(const uint8_t* data,
                                              size_t size);

  /// Installs a level's broadcast entries into the local memo replica —
  /// the one mutating, deterministic state transition. Fails with
  /// Corruption unless every entry is a join (BNL, HJ or SMJ) of a set
  /// not installed yet, whose left operand is a non-empty proper subset
  /// (and, for linear plans, whose right operand is one table), both
  /// operands installed, with at least one plan whose child indices lie
  /// within the operands' frontiers. Plan extraction then terminates.
  Status ApplyBroadcast(const uint8_t* data, size_t size);
  Status ApplyBroadcast(const std::vector<uint8_t>& payload) {
    return ApplyBroadcast(payload.data(), payload.size());
  }

  bool Scalar() const { return options_.objective == Objective::kTime; }

  /// Approximate heap footprint of the replica (memo slots + frontier
  /// plans); the worker-side per-session byte cap compares against this.
  size_t ApproxBytes() const;

  /// Appends the best plan (scalar) or the frontier (multi-objective) of
  /// the full query, materialized into `arena`, to `best`. Corruption
  /// when the full query has no entry installed.
  Status BuildBest(PlanArena* arena, std::vector<PlanId>* best) const;

 private:
  const Query query_;  ///< owned: the replica outlives the master's call
  const SmaNodeOptions options_;
  const CostModel model_;
  const CardinalityEstimator estimator_;
  const PartitionIndex index_;
  /// Exactly one is set, by objective; both reference the members above.
  std::optional<ScalarDp> scalar_;
  std::optional<ParetoDp> pareto_;
};

}  // namespace mpqopt

#endif  // MPQOPT_SMA_SMA_NODE_H_
