// Copyright 2026 mpqopt authors.
//
// AdmissionController — the front door of OptimizerService.
//
// Combines the two admission mechanisms into one decision per request:
//
//   1. Per-tenant token-bucket quota (quota_tracker.h): an over-quota
//      tenant is rejected with ResourceExhausted before it can occupy a
//      queue entry, let alone a backend round.
//   2. Bounded weighted-fair priority queueing (admission_queue.h): a
//      within-quota request either runs immediately, waits its turn in
//      its class queue, is shed because the queue is full
//      (ResourceExhausted), or expires waiting (DeadlineExceeded).
//
// Admit() returns an RAII Ticket; destroying it releases the running
// slot and dispatches the next queued request. The controller is what
// every later fleet/multi-master layer queues behind, so its stats
// surface (admitted / rejected / queued / timed-out) is part of
// ServiceStats and the CLI report.

#ifndef MPQOPT_SERVICE_ADMISSION_ADMISSION_CONTROLLER_H_
#define MPQOPT_SERVICE_ADMISSION_ADMISSION_CONTROLLER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "service/admission/admission_queue.h"
#include "service/admission/quota_tracker.h"

namespace mpqopt {

/// Who a request belongs to and how urgent it is. The default value —
/// empty tenant, interactive — is what the 2-arg Optimize() uses, and
/// with default quotas it admits exactly like the pre-admission service.
struct RequestContext {
  /// Quota key; "" is the default tenant.
  std::string tenant;
  Priority priority = Priority::kInteractive;
};

/// Configuration of one AdmissionController (CLI: --admission,
/// --tenant-rate, --tenant-burst, --queue-depth).
struct AdmissionOptions {
  /// Default per-tenant quota and the refill clock.
  QuotaTrackerOptions quota;
  /// Slots, per-class queue depth, queue deadline and class weights.
  AdmissionQueueOptions queue;
};

/// Admission outcome counters (monotonic except the *_now gauges).
struct AdmissionStats {
  uint64_t admitted = 0;        ///< granted a slot (ran or is running)
  uint64_t rejected_quota = 0;  ///< over-quota tenant (ResourceExhausted)
  uint64_t rejected_queue = 0;  ///< class queue full (ResourceExhausted)
  uint64_t timed_out = 0;       ///< expired queued (DeadlineExceeded)
  /// Grants per class, indexed by Priority.
  std::array<uint64_t, kNumPriorityClasses> admitted_by_class = {0, 0, 0};
  size_t queued_now = 0;
  size_t running_now = 0;
};

/// See file comment. All methods thread-safe.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Holds one running slot; move-only. Destruction (of an engaged
  /// ticket) releases the slot and wakes the next queued request.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(AdmissionQueue* queue) : queue_(queue) {}
    Ticket(Ticket&& other) noexcept
        : queue_(std::exchange(other.queue_, nullptr)) {}
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        ReleaseNow();
        queue_ = std::exchange(other.queue_, nullptr);
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { ReleaseNow(); }

   private:
    void ReleaseNow() {
      if (queue_ != nullptr) std::exchange(queue_, nullptr)->Release();
    }
    AdmissionQueue* queue_ = nullptr;
  };

  /// Admits one request: quota check, then (possibly queued) slot
  /// acquisition. On OK the returned Ticket holds the slot until it is
  /// destroyed. Errors are deterministic: ResourceExhausted (quota or
  /// full queue) or DeadlineExceeded (queue timeout).
  StatusOr<Ticket> Admit(const RequestContext& ctx);

  /// Sets (or replaces) one tenant's quota; see QuotaTracker::SetQuota.
  void SetQuota(const std::string& tenant, double rate_per_second,
                double burst) {
    quota_.SetQuota(tenant, rate_per_second, burst);
  }

  AdmissionStats stats() const;

  QuotaTracker& quota_for_testing() { return quota_; }

 private:
  QuotaTracker quota_;
  AdmissionQueue queue_;
  std::atomic<uint64_t> rejected_quota_{0};
};

}  // namespace mpqopt

#endif  // MPQOPT_SERVICE_ADMISSION_ADMISSION_CONTROLLER_H_
