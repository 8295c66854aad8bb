// Copyright 2026 mpqopt authors.
//
// AdmissionQueue — bounded priority queueing with weighted-fair dequeue
// into a fixed number of running slots (ROADMAP "Admission control").
//
// Three priority classes (interactive / batch / background). A request
// that arrives while a slot is free and nobody is queued runs
// immediately; otherwise it joins its class's bounded FIFO. A full class
// queue sheds the request with a deterministic ResourceExhausted status
// (fail fast beats an unbounded backlog), and a queued request that
// outlives its deadline fails with DeadlineExceeded and leaves the
// queue — shed load never occupies a slot.
//
// Dequeue is weighted-fair stride scheduling: when a slot frees, the
// non-empty class with the smallest served/weight ratio dequeues next,
// so a flood of background work cannot starve interactive queries, yet
// background still gets its weighted share. The pick function is pure
// and exposed statically for deterministic unit tests.

#ifndef MPQOPT_SERVICE_ADMISSION_ADMISSION_QUEUE_H_
#define MPQOPT_SERVICE_ADMISSION_ADMISSION_QUEUE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace mpqopt {

/// Priority class of one request. Lower value = more latency-sensitive.
enum class Priority : uint8_t {
  kInteractive = 0,  ///< a user is waiting on the answer
  kBatch = 1,        ///< throughput-oriented (report jobs, ETL)
  kBackground = 2,   ///< best-effort (recosting, maintenance)
};

inline constexpr int kNumPriorityClasses = 3;

/// "interactive" / "batch" / "background".
const char* PriorityName(Priority priority);

/// Parses a priority name as accepted by the CLI's --priority= flag.
/// The error message enumerates every accepted class.
StatusOr<Priority> ParsePriority(const std::string& name);

/// "interactive|batch|background" — for --help text and error messages.
std::string PriorityList();

/// Configuration of one AdmissionQueue.
struct AdmissionQueueOptions {
  /// Requests allowed to run concurrently (the slot count); 0 = twice
  /// the hardware concurrency. Must be >= 0.
  int max_concurrent = 0;
  /// Per-class queue depth; a request arriving at a full class queue is
  /// shed immediately. Must be >= 0 (0 = never queue, shed instead).
  int queue_depth = 64;
  /// Deadline for queued requests; a request still queued after this
  /// long fails with DeadlineExceeded. <= 0 waits indefinitely.
  int queue_timeout_ms = 10000;
  /// Weighted-fair share per class, indexed by Priority. Minimum 1 each.
  std::array<int, kNumPriorityClasses> weights = {8, 2, 1};
};

/// Counters of one AdmissionQueue (monotonic except the *_now gauges).
struct AdmissionQueueStats {
  /// Granted a slot without queueing (slot free, queues empty).
  uint64_t admitted_immediately = 0;
  /// Granted a slot after waiting in a class queue.
  uint64_t admitted_from_queue = 0;
  /// Shed because the class queue was at queue_depth.
  uint64_t shed_queue_full = 0;
  /// Expired in the queue (DeadlineExceeded).
  uint64_t timed_out = 0;
  /// Grants per class (immediate + from queue), indexed by Priority.
  std::array<uint64_t, kNumPriorityClasses> admitted_by_class = {0, 0, 0};
  /// Requests queued right now / running right now.
  size_t queued_now = 0;
  size_t running_now = 0;
};

/// Bounded weighted-fair priority queue. All methods thread-safe.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionQueueOptions options);

  /// Blocks until a slot is granted (OK — caller MUST Release() when its
  /// work finishes), the class queue is full (immediate
  /// ResourceExhausted), or the queue deadline expires
  /// (DeadlineExceeded).
  Status Acquire(Priority priority);

  /// Returns a slot taken by a successful Acquire and dispatches queued
  /// waiters (weighted-fair).
  void Release();

  AdmissionQueueStats stats() const;

  /// The weighted-fair pick, pure for deterministic tests: among classes
  /// with `nonempty[c]`, returns the one minimizing served[c]/weight[c]
  /// (ties break toward the lower class index, i.e. more interactive);
  /// -1 if every class is empty. Weights are clamped to >= 1.
  static int PickClass(
      const std::array<uint64_t, kNumPriorityClasses>& served,
      const std::array<int, kNumPriorityClasses>& weights,
      const std::array<bool, kNumPriorityClasses>& nonempty);

 private:
  struct Waiter {
    bool granted = false;
  };

  /// Requires mutex_ held: grants slots to queued waiters while any are
  /// free, in weighted-fair order.
  void DispatchLocked();

  /// max_concurrent resolved to the slot count.
  const AdmissionQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::array<std::deque<std::shared_ptr<Waiter>>, kNumPriorityClasses>
      queues_;
  /// Grants per class while a backlog existed — the stride counters.
  std::array<uint64_t, kNumPriorityClasses> served_ = {0, 0, 0};
  int running_ = 0;
  AdmissionQueueStats stats_;
};

}  // namespace mpqopt

#endif  // MPQOPT_SERVICE_ADMISSION_ADMISSION_QUEUE_H_
