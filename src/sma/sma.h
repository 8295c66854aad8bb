// Copyright 2026 mpqopt authors.
//
// SMA — the "shared-memory approach" baseline (paper Section 6.1).
//
// SMA represents the prior fine-grained parallelizations of DP query
// optimization (Han et al. VLDB'08, SIGMOD'09): a central master assigns
// small batches of table sets to workers level by level (all sets of
// cardinality k form one level), workers construct optimal plans for their
// assigned sets from the plans of lower levels, and — since on a
// shared-nothing architecture there is no shared memotable — the master
// must broadcast every level's freshly computed memo entries to every
// worker before the next level can start. Consequences, faithfully
// reproduced here:
//
//  * many communication rounds per query (one per level),
//  * network volume proportional to the memotable, i.e. exponential in
//    the query size and linear in the worker count,
//  * per-level task-assignment overhead on the master that grows with m.
//
// All inter-node transfers go through real byte serialization, so the
// reported network bytes are actual payload sizes, as for MPQ. Each node
// costs and prunes plans with the MPQ workers' DP kernels
// (optimizer/partition_dp.h, see sma_node.h), so SMA and MPQ differ in how
// they parallelize the DP, not in the DP.
//
// The per-node memo replicas are STATEFUL, so SMA runs through the
// session protocol (cluster/session/) rather than plain stateless
// rounds: the backend opens one StatefulTaskKind::kSmaNode replica per
// worker, each level is one scatter Step (compute chunks, pure reads)
// followed by one Broadcast (apply the level's entries — the mutating,
// replayable state transition). The in-process backend keeps the
// replicas in this process; the rpc backend hosts them in remote
// mpqopt_worker processes with reconnect + replay recovery. Plan cost,
// rounds, and network bytes are identical on every backend
// (tests/sma_test.cc).

#ifndef MPQOPT_SMA_SMA_H_
#define MPQOPT_SMA_SMA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/query.h"
#include "cluster/backend.h"
#include "common/status.h"
#include "net/network_model.h"
#include "plan/plan.h"
#include "sma/sma_node.h"

namespace mpqopt {

/// Options of one SMA run: the plan-affecting knobs every replica gets
/// in its open request, plus the master-side execution knobs.
struct SmaOptions : SmaNodeOptions {
  /// Number of workers (any value >= 1; SMA is not restricted to powers
  /// of two, tasks are dealt round-robin).
  uint64_t num_workers = 1;
  /// Simulated-cluster parameters: every round's modeled time comes from
  /// these, whichever backend hosts the replicas.
  NetworkModel network;
  /// Worker-execution runtime hosting the per-node replicas (any
  /// session-capable backend, including rpc). Null (default) uses a
  /// per-call pool of zero threads, so every chunk runs inline on the
  /// caller and per-chunk compute timing stays unpolluted.
  std::shared_ptr<ExecutionBackend> backend;
  /// SMA materializes the full memo on every worker; refuse queries whose
  /// memo exceeds this (the paper stops SMA at 16 tables).
  int max_tables = 22;
};

/// Result of one SMA run; mirrors MpqResult's accounting fields.
struct SmaResult {
  PlanArena arena;
  std::vector<PlanId> best;

  double simulated_seconds = 0;
  double wall_seconds = 0;
  double master_seconds = 0;
  double max_worker_seconds = 0;  ///< max summed per-worker compute
  /// Memo slots held per worker — 2^n regardless of m, in contrast to
  /// MPQ's per-partition memos.
  int64_t max_worker_memo_sets = 0;

  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;
  int rounds = 0;  ///< communication rounds (levels)
};

/// Runs SMA on `query`. Workers are simulated as isolated stateful nodes;
/// per-chunk compute time is measured, transfers are modeled from true
/// byte counts (see NetworkModel).
StatusOr<SmaResult> SmaOptimize(const Query& query, const SmaOptions& options);

}  // namespace mpqopt

#endif  // MPQOPT_SMA_SMA_H_
