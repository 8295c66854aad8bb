// Copyright 2026 mpqopt authors.

#include "service/admission/admission_controller.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mpqopt {

AdmissionController::AdmissionController(AdmissionOptions options)
    : quota_(std::move(options.quota)), queue_(std::move(options.queue)) {}

StatusOr<AdmissionController::Ticket> AdmissionController::Admit(
    const RequestContext& ctx) {
  {
    obs::Span quota_span("admission.quota");
    Status quota = quota_.TryAcquire(ctx.tenant);
    if (!quota.ok()) {
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      return quota;
    }
  }
  // Queue wait is where admission latency actually accrues; the
  // histogram is recorded whether or not the slot was granted (a shed or
  // timed-out request waited, too).
  static obs::Histogram* const queue_wait_ms =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kQueueWaitHistogram, obs::Histogram::LatencyBoundariesMs());
  const auto wait_start = std::chrono::steady_clock::now();
  Status slot = Status::OK();
  {
    obs::Span queue_span("admission.queue_wait");
    slot = queue_.Acquire(ctx.priority);
  }
  queue_wait_ms->Record(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wait_start)
          .count());
  if (!slot.ok()) return slot;
  return Ticket(&queue_);
}

AdmissionStats AdmissionController::stats() const {
  const AdmissionQueueStats q = queue_.stats();
  AdmissionStats out;
  out.admitted = q.admitted_immediately + q.admitted_from_queue;
  out.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  out.rejected_queue = q.shed_queue_full;
  out.timed_out = q.timed_out;
  out.admitted_by_class = q.admitted_by_class;
  out.queued_now = q.queued_now;
  out.running_now = q.running_now;
  return out;
}

}  // namespace mpqopt
