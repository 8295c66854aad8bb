// Copyright 2026 mpqopt authors.

#include "service/admission/admission_queue.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/macros.h"

namespace mpqopt {
namespace {

struct PriorityRow {
  Priority priority;
  const char* name;
};

constexpr PriorityRow kPriorityTable[] = {
    {Priority::kInteractive, "interactive"},
    {Priority::kBatch, "batch"},
    {Priority::kBackground, "background"},
};

}  // namespace

const char* PriorityName(Priority priority) {
  for (const PriorityRow& row : kPriorityTable) {
    if (row.priority == priority) return row.name;
  }
  return "unknown";
}

StatusOr<Priority> ParsePriority(const std::string& name) {
  for (const PriorityRow& row : kPriorityTable) {
    if (name == row.name) return row.priority;
  }
  return Status::InvalidArgument("unknown priority '" + name +
                                 "' (expected " + PriorityList() + ")");
}

std::string PriorityList() {
  std::string out;
  for (const PriorityRow& row : kPriorityTable) {
    if (!out.empty()) out += '|';
    out += row.name;
  }
  return out;
}

namespace {

AdmissionQueueOptions ResolveSlots(AdmissionQueueOptions options) {
  MPQOPT_CHECK(options.max_concurrent >= 0);
  if (options.max_concurrent == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options.max_concurrent = 2 * static_cast<int>(hw == 0 ? 4 : hw);
  }
  return options;
}

}  // namespace

AdmissionQueue::AdmissionQueue(AdmissionQueueOptions options)
    : options_(ResolveSlots(std::move(options))) {
  MPQOPT_CHECK(options_.queue_depth >= 0);
}

int AdmissionQueue::PickClass(
    const std::array<uint64_t, kNumPriorityClasses>& served,
    const std::array<int, kNumPriorityClasses>& weights,
    const std::array<bool, kNumPriorityClasses>& nonempty) {
  int best = -1;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    if (!nonempty[c]) continue;
    if (best < 0) {
      best = c;
      continue;
    }
    // served[c]/weight[c] < served[best]/weight[best], cross-multiplied
    // to stay exact in integers; ties keep `best` (the lower index).
    const uint64_t wc = static_cast<uint64_t>(std::max(weights[c], 1));
    const uint64_t wb = static_cast<uint64_t>(std::max(weights[best], 1));
    if (served[c] * wb < served[best] * wc) best = c;
  }
  return best;
}

void AdmissionQueue::DispatchLocked() {
  bool granted_any = false;
  while (running_ < options_.max_concurrent) {
    std::array<bool, kNumPriorityClasses> nonempty;
    for (int c = 0; c < kNumPriorityClasses; ++c) {
      nonempty[c] = !queues_[c].empty();
    }
    const int c = PickClass(served_, options_.weights, nonempty);
    if (c < 0) break;
    std::shared_ptr<Waiter> waiter = std::move(queues_[c].front());
    queues_[c].pop_front();
    waiter->granted = true;
    ++running_;
    ++served_[c];
    granted_any = true;
  }
  if (granted_any) cv_.notify_all();
}

Status AdmissionQueue::Acquire(Priority priority) {
  const int c = static_cast<int>(priority);
  MPQOPT_CHECK(c >= 0 && c < kNumPriorityClasses);
  std::unique_lock<std::mutex> lock(mutex_);

  bool queues_empty = true;
  for (const auto& q : queues_) queues_empty &= q.empty();
  if (running_ < options_.max_concurrent && queues_empty) {
    ++running_;
    ++stats_.admitted_immediately;
    ++stats_.admitted_by_class[c];
    return Status::OK();
  }

  if (queues_[c].size() >= static_cast<size_t>(options_.queue_depth)) {
    ++stats_.shed_queue_full;
    return Status::ResourceExhausted(
        std::string(PriorityName(priority)) +
        " admission queue is full (depth " +
        std::to_string(options_.queue_depth) + ")");
  }

  auto waiter = std::make_shared<Waiter>();
  queues_[c].push_back(waiter);
  const auto granted = [&waiter] { return waiter->granted; };
  if (options_.queue_timeout_ms <= 0) {
    cv_.wait(lock, granted);
  } else if (!cv_.wait_for(
                 lock, std::chrono::milliseconds(options_.queue_timeout_ms),
                 granted)) {
    // Expired while still queued: leave the queue so the slot
    // dispatcher never grants to an abandoned waiter.
    auto& q = queues_[c];
    q.erase(std::find(q.begin(), q.end(), waiter));
    ++stats_.timed_out;
    return Status::DeadlineExceeded(
        std::string(PriorityName(priority)) + " request expired after " +
        std::to_string(options_.queue_timeout_ms) + " ms in queue");
  }
  ++stats_.admitted_from_queue;
  ++stats_.admitted_by_class[c];
  return Status::OK();
}

void AdmissionQueue::Release() {
  std::lock_guard<std::mutex> lock(mutex_);
  MPQOPT_CHECK(running_ > 0);
  --running_;
  DispatchLocked();
}

AdmissionQueueStats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmissionQueueStats out = stats_;
  out.queued_now = 0;
  for (const auto& q : queues_) out.queued_now += q.size();
  out.running_now = static_cast<size_t>(running_);
  return out;
}

}  // namespace mpqopt
