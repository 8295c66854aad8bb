#include "setup.h"

#include <sched.h>

#include <cstdlib>

#include "cluster/backend.h"

namespace perfbench {

using mpqopt::Status;

namespace {

/// The CPUs this process may run on, in ascending order, as they were
/// before the first set-up pinned anything.
const std::vector<int>& HostCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) return allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    }
    return allowed;
  }();
  return cpus;
}

/// Restricts the calling thread, and every thread or process it starts
/// from now on, to `cpus`.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

/// Starts kRpcWorkers workers. With a CPU for the master pair plus one
/// per worker, lays the farm out like a small cluster: each worker alone
/// on its own CPU, and this thread (so the clients, the master and the
/// backend threads it starts later) on the first two. Loopback wake-ups
/// then never queue behind another process's threads, which keeps
/// run-to-run spread down on a shared host.
void StartWorkers(mpqopt::RpcWorkerFarm* farm) {
  const std::vector<int>& cpus = HostCpus();
  const bool pin = cpus.size() >= static_cast<size_t>(2 + kRpcWorkers);
  for (int w = 0; w < kRpcWorkers; ++w) {
    // The worker inherits this thread's CPU mask across fork and exec.
    if (pin) PinTo({cpus[2 + w]});
    farm->Start(1, {"--log-level=error"});
  }
  if (pin) PinTo({cpus[0], cpus[1]});
}

}  // namespace

void SetWorkerBinary(const std::string& path) {
  ::setenv("MPQOPT_WORKER_BIN", path.c_str(), /*overwrite=*/1);
}

mpqopt::StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec) {
  auto deployment = std::make_unique<Deployment>();
  mpqopt::BackendOptions backend_options;
  mpqopt::BackendKind kind = mpqopt::BackendKind::kAsyncBatch;
  if (spec.backend == BackendChoice::kRpc) {
    StartWorkers(&deployment->farm);
    kind = mpqopt::BackendKind::kRpc;
    backend_options.workers_addr = deployment->farm.workers_addr();
    deployment->slots = kRpcWorkers;
  } else {
    backend_options.max_threads = kAsyncThreads;
    // Each client's thread helps drain its own round.
    deployment->slots = kAsyncThreads + spec.clients;
  }
  mpqopt::StatusOr<std::shared_ptr<mpqopt::ExecutionBackend>> backend =
      mpqopt::MakeBackend(kind, backend_options);
  if (!backend.ok()) return backend.status();

  mpqopt::ServiceOptions options;
  options.backend = std::move(backend).value();
  options.enable_plan_cache = true;
  options.plan_cache_bytes = kPlanCacheBytes;
  deployment->service =
      std::make_unique<mpqopt::OptimizerService>(std::move(options));
  if (!deployment->service->init_status().ok()) {
    return deployment->service->init_status();
  }
  return deployment;
}

}  // namespace perfbench
