// Copyright 2026 mpqopt authors.
//
// Persistent-pool execution: the in-process runtime of every optimizer
// that is not handed a backend, and of OptimizerService. A fixed pool of
// host threads stays alive for the backend's lifetime — no thread spawn
// or join per round — and pipelines rounds through it:
//
//  * Rounds submitted concurrently from any number of threads share the
//    pool; their tasks are interleaved fairly (each pool thread claims at
//    most one task per active round per pass, round-robin), so one large
//    query cannot starve the small ones behind it.
//  * Task handoff is lock-free on the hot path: claiming a task is a
//    single fetch_add on the round's atomic cursor. A mutex is touched
//    only when a round arrives or retires and when an idle worker parks.
//  * The submitting thread does not just block: it helps drain its own
//    round, so a single-threaded caller still makes progress even when
//    the pool is busy with other rounds — and a pool of zero threads
//    runs every task on the submitting thread, one after another.
//
// Responses, per-task compute measurement, traffic accounting, and the
// modeled cluster time are identical to the rpc backend (shared
// FinalizeRound); only the hosting differs.

#ifndef MPQOPT_CLUSTER_ASYNC_BATCH_BACKEND_H_
#define MPQOPT_CLUSTER_ASYNC_BATCH_BACKEND_H_

#include <condition_variable>
#include <mutex>
#include <thread>

#include "cluster/backend.h"

namespace mpqopt {

/// Executes rounds on a persistent worker pool shared across rounds and
/// across concurrently submitting threads.
class AsyncBatchBackend : public ExecutionBackend {
 public:
  /// `pool_threads` is the exact pool size; 0 runs every task on the
  /// submitting thread. MakeBackend picks a size from the core count.
  explicit AsyncBatchBackend(NetworkModel model, int pool_threads);
  ~AsyncBatchBackend() override;

  MPQOPT_DISALLOW_COPY_AND_ASSIGN(AsyncBatchBackend);

  StatusOr<RoundResult> RunRound(const std::vector<WorkerTask>& tasks,
                                 const std::vector<std::vector<uint8_t>>&
                                     requests) override;

  const char* name() const override { return "async"; }

  int pool_size() const { return static_cast<int>(pool_.size()); }

 private:
  struct ActiveRound;

  /// Claims and executes one task of `round`; returns false if the
  /// round has no unclaimed tasks left.
  static bool RunOneTask(ActiveRound* round);

  void WorkerLoop();

  // Round registry. Guarded by registry_mutex_; generation_ bumps on
  // every arrival/retirement so workers know to refresh their snapshot.
  std::mutex registry_mutex_;
  std::condition_variable work_cv_;
  std::vector<std::shared_ptr<ActiveRound>> active_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> pool_;
};

}  // namespace mpqopt

#endif  // MPQOPT_CLUSTER_ASYNC_BATCH_BACKEND_H_
