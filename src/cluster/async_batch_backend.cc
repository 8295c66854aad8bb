// Copyright 2026 mpqopt authors.

#include "cluster/async_batch_backend.h"

#include <atomic>
#include <chrono>

#include "obs/trace.h"

namespace mpqopt {

/// One submitted round, shared between the submitter and the pool.
///
/// Lifetime: the submitter owns the RoundResult and the task/request
/// vectors on its stack; workers reach them through the raw pointers
/// below. The protocol that makes this safe: a worker first claims a task
/// index with fetch_add on `next_task` and only dereferences the pointers
/// for indices < num_tasks; `completed` reaches num_tasks only after
/// every claimed task has finished writing its result slot, and the
/// submitter does not return (or retire the round) before that. Workers
/// holding a stale snapshot of a retired round see next_task >= num_tasks
/// and never touch the pointers; the ActiveRound object itself stays
/// alive through their shared_ptr.
struct AsyncBatchBackend::ActiveRound {
  const std::vector<WorkerTask>* tasks = nullptr;
  const std::vector<std::vector<uint8_t>>* requests = nullptr;
  RoundResult* result = nullptr;
  size_t num_tasks = 0;

  /// The submitter's trace (null = untraced round). Carried in the round
  /// itself, not thread-locally: pool threads execute tasks of whichever
  /// round has work, so the span must follow the round.
  obs::QueryTrace* trace = nullptr;
  uint32_t trace_parent = obs::kNoSpan;

  /// Lock-free task handoff: claim = one fetch_add.
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> completed{0};

  std::mutex error_mutex;
  Status first_error = Status::OK();

  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
};

AsyncBatchBackend::AsyncBatchBackend(NetworkModel model, int pool_threads)
    : ExecutionBackend(model) {
  MPQOPT_CHECK(pool_threads >= 0);
  pool_.reserve(static_cast<size_t>(pool_threads));
  for (int i = 0; i < pool_threads; ++i) {
    pool_.emplace_back([this]() { WorkerLoop(); });
  }
}

AsyncBatchBackend::~AsyncBatchBackend() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    shutdown_ = true;
    ++generation_;
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

bool AsyncBatchBackend::RunOneTask(ActiveRound* round) {
  const size_t i = round->next_task.fetch_add(1);
  if (i >= round->num_tasks) return false;
  const uint64_t span_start =
      round->trace != nullptr ? obs::MonotonicNanos() : 0;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<std::vector<uint8_t>> response =
      (*round->tasks)[i]((*round->requests)[i]);
  const auto end = std::chrono::steady_clock::now();
  round->result->compute_seconds[i] =
      std::chrono::duration<double>(end - start).count();
  if (round->trace != nullptr) {
    round->trace->AddCompleteSpan("compute", round->trace_parent, span_start,
                                  obs::MonotonicNanos());
  }
  if (response.ok()) {
    round->result->responses[i] = std::move(response).value();
  } else {
    std::lock_guard<std::mutex> lock(round->error_mutex);
    if (round->first_error.ok()) round->first_error = response.status();
  }
  if (round->completed.fetch_add(1) + 1 == round->num_tasks) {
    std::lock_guard<std::mutex> lock(round->done_mutex);
    round->done = true;
    round->done_cv.notify_all();
  }
  return true;
}

void AsyncBatchBackend::WorkerLoop() {
  std::vector<std::shared_ptr<ActiveRound>> snapshot;
  uint64_t snapshot_generation = 0;
  size_t cursor = 0;
  while (true) {
    // Refresh the snapshot when rounds arrived or retired; park when the
    // current snapshot holds no claimable work.
    {
      std::unique_lock<std::mutex> lock(registry_mutex_);
      if (shutdown_) return;
      if (generation_ != snapshot_generation) {
        snapshot = active_;
        snapshot_generation = generation_;
      }
    }
    // One pass: claim at most one task per round, round-robin, so tasks
    // of concurrently submitted rounds interleave fairly. The cursor is
    // fixed for the whole pass (advancing it mid-pass would revisit
    // already-served rounds) and rotates afterwards so successive passes
    // start at different rounds.
    bool progressed = false;
    const size_t rounds = snapshot.size();
    for (size_t k = 0; k < rounds; ++k) {
      ActiveRound* round = snapshot[(cursor + k) % rounds].get();
      if (RunOneTask(round)) progressed = true;
    }
    if (rounds > 0) cursor = (cursor + 1) % rounds;
    if (!progressed) {
      std::unique_lock<std::mutex> lock(registry_mutex_);
      work_cv_.wait(lock, [&]() {
        return shutdown_ || generation_ != snapshot_generation;
      });
      if (shutdown_) return;
    }
  }
}

StatusOr<RoundResult> AsyncBatchBackend::RunRound(
    const std::vector<WorkerTask>& tasks,
    const std::vector<std::vector<uint8_t>>& requests) {
  MPQOPT_CHECK_EQ(tasks.size(), requests.size());
  const size_t num_tasks = tasks.size();
  RoundResult result;
  result.responses.resize(num_tasks);
  result.compute_seconds.assign(num_tasks, 0.0);

  const auto round_start = std::chrono::steady_clock::now();
  if (num_tasks > 0) {
    auto round = std::make_shared<ActiveRound>();
    round->tasks = &tasks;
    round->requests = &requests;
    round->result = &result;
    round->num_tasks = num_tasks;
    const obs::TraceContext submitter_ctx = obs::CurrentTraceContext();
    round->trace = submitter_ctx.trace;
    round->trace_parent = submitter_ctx.span;

    {
      std::lock_guard<std::mutex> lock(registry_mutex_);
      MPQOPT_CHECK(!shutdown_);
      active_.push_back(round);
      ++generation_;
    }
    work_cv_.notify_all();

    // Help drain our own round instead of blocking outright — keeps a
    // single submitter responsive even when the pool is busy elsewhere.
    while (RunOneTask(round.get())) {
    }
    {
      std::unique_lock<std::mutex> lock(round->done_mutex);
      round->done_cv.wait(lock, [&]() { return round->done; });
    }
    {
      std::lock_guard<std::mutex> lock(registry_mutex_);
      for (size_t i = 0; i < active_.size(); ++i) {
        if (active_[i] == round) {
          active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
      ++generation_;
    }
    if (!round->first_error.ok()) return round->first_error;
  }
  const auto round_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(round_end - round_start).count();

  FinalizeRound(requests, &result);
  return result;
}

}  // namespace mpqopt
