// Set-up of one benchmark deployment: the execution backend (on rpc,
// spawning the mpqopt_worker processes plus dial and ping) and the
// OptimizerService in front of it.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "service/optimizer_service.h"
#include "tests/rpc_test_util.h"
#include "workloads.h"

namespace perfbench {

/// Plan-cache byte budget of every deployment. Small enough that the
/// miss streams reach capacity eviction within a run, so memory does not
/// grow with run length.
inline constexpr size_t kPlanCacheBytes = size_t{16} << 20;

struct Deployment {
  // The service holds connections to the farm's workers: declared after
  // the farm so it is destroyed first. The farm kills and reaps its
  // workers on destruction.
  mpqopt::RpcWorkerFarm farm;
  std::unique_ptr<mpqopt::OptimizerService> service;
  /// Threads or processes a round's tasks spread over: the pool threads
  /// plus the submitting clients in process, the worker processes on rpc.
  int slots = 0;
};

/// The mpqopt_worker binary rpc deployments spawn.
void SetWorkerBinary(const std::string& path);

/// Builds the backend and service for `spec`. On rpc, on a host with a
/// CPU for the master pair plus one per worker, it pins each worker to a
/// CPU of its own and the calling thread to the first two CPUs.
mpqopt::StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
