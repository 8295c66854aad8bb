// Copyright 2026 mpqopt authors.

#include "cluster/rpc_backend.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>

#include "cluster/session/rpc_session.h"
#include "cluster/session/session_wire.h"
#include "cluster/task_registry.h"
#include "common/serialize.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/trace.h"
#include "obs/worker_log.h"

namespace mpqopt {

namespace {

/// Bytes of a kBatchTask subtask-slot header (u8 kind + u32 length).
constexpr size_t kBatchSlotHeaderBytes = sizeof(uint8_t) + sizeof(uint32_t);

/// One worker's share of a scatter pass, and where its frames stand.
/// Not movable (the worker connection's queue points at `pending`).
struct WorkerShare {
  size_t worker = 0;
  /// Round task indices, in pending order.
  std::vector<size_t> tasks;
  /// tasks[0, next) have been answered (or abandoned); the outstanding
  /// frame carries tasks[next, next + in_flight).
  size_t next = 0;
  size_t in_flight = 0;
  /// When the outstanding frame was sent (traced rounds only).
  uint64_t sent_ns = 0;
  /// The outstanding frame's place on the worker's connection, and where
  /// its reply lands when it carries a batch (a lone task's reply lands
  /// in the task's response).
  WorkerSupervisor::PendingReply pending;
  std::vector<uint8_t> reply;
};

}  // namespace

StatusOr<std::shared_ptr<RpcBackend>> RpcBackend::Connect(
    const std::vector<std::string>& endpoints, SupervisorOptions supervision) {
  StatusOr<std::unique_ptr<WorkerSupervisor>> supervisor =
      WorkerSupervisor::Connect(endpoints, supervision);
  if (!supervisor.ok()) return supervisor.status();
  return std::shared_ptr<RpcBackend>(
      new RpcBackend(std::move(supervisor).value()));
}

RpcBackend::RpcBackend(std::unique_ptr<WorkerSupervisor> supervisor)
    : supervisor_(std::move(supervisor)) {}

BackendHealth RpcBackend::health() const {
  BackendHealth health = supervisor_->Snapshot();
  health.tasks_rescattered =
      tasks_rescattered_.load(std::memory_order_relaxed);
  health.rounds_recovered = rounds_recovered_.load(std::memory_order_relaxed);
  health.scatter_batches = scatter_batches_.load(std::memory_order_relaxed);
  health.tasks_coalesced = tasks_coalesced_.load(std::memory_order_relaxed);
  FillSessionCounters(&health);
  return health;
}

StatusOr<RoundResult> RpcBackend::RunRound(
    const std::vector<WorkerTask>& tasks,
    const std::vector<std::vector<uint8_t>>& requests) {
  MPQOPT_CHECK_EQ(tasks.size(), requests.size());
  const size_t num_tasks = tasks.size();
  RoundResult result;
  result.responses.resize(num_tasks);
  result.compute_seconds.assign(num_tasks, 0.0);

  // Every task must name a registered entry point and fit in a frame
  // before anything is sent — a half-scattered round with an unshippable
  // task helps nobody, and a purely local validation failure must not
  // poison a healthy connection.
  std::vector<uint8_t> kinds(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    const RpcTaskKind kind = ResolveTaskKind(tasks[i]);
    if (kind == RpcTaskKind::kUnknownTask) {
      return Status::InvalidArgument(
          "rpc backend can only ship registered worker entry points "
          "(task " +
          std::to_string(i) +
          " wraps an unregistered function; see cluster/task_registry.h)");
    }
    if (requests[i].size() > kMaxFramePayloadBytes) {
      return Status::InvalidArgument(
          "request for task " + std::to_string(i) + " (" +
          std::to_string(requests[i].size()) +
          " bytes) exceeds the frame size limit");
    }
    kinds[i] = static_cast<uint8_t>(kind);
  }

  // With an active trace on the calling thread, each frame's exchange and
  // worker spans are recorded from its send and reply times and the
  // timings the reply carries; the frames themselves are the untraced ones.
  obs::QueryTrace* const trace = obs::CurrentTraceContext().trace;

  // Round-level recovery loop: scatter the pending tasks over the usable
  // workers; connection-level failures leave their tasks pending and the
  // next pass re-scatters them over whoever is usable then (the
  // supervisor redials SUSPECT workers under its backoff). A clean
  // task-error reply is deterministic and fails the round once the pass
  // has drained its replies. A pathological worker that keeps accepting
  // and dying cannot livelock the round: the number of scatter passes is
  // bounded by the pool's total redial budget plus slack.
  const size_t num_workers = supervisor_->num_workers();
  const size_t max_passes =
      RecoveryPassBudget(supervisor_->options().max_redials, num_workers);
  std::vector<char> done(num_tasks, 0);
  std::vector<size_t> pending(num_tasks);
  std::iota(pending.begin(), pending.end(), size_t{0});
  Status task_error = Status::OK();
  Status last_worker_error = Status::OK();
  size_t passes = 0;
  bool recovered = false;
  // Frame buffers, reused by every frame of the round (a frame's bytes
  // are on the wire once Send returns).
  std::vector<uint8_t> heads;
  std::vector<ConstSpan> parts;
  std::vector<BatchSlot> slots;

  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kRoundStart,
                                       "rpc round: %zu tasks over %zu workers",
                                       num_tasks, num_workers);
  // The watchdog flags this round into the recorder (and
  // obs.stalls_total) if it is still in flight past the configured
  // threshold — a no-op when no threshold is armed.
  obs::StallWatchdog::Guard stall_guard("rpc.round");
  const auto round_start = std::chrono::steady_clock::now();
  while (!pending.empty()) {
    const std::vector<size_t> usable = supervisor_->UsableWorkers();
    if (usable.empty()) {
      const int delay = supervisor_->NextRedialDelayMs();
      if (delay < 0) {
        return Status::Internal(
            "rpc round failed: all " + std::to_string(num_workers) +
            " workers are dead" +
            (last_worker_error.ok()
                 ? std::string()
                 : "; last failure: " + last_worker_error.ToString()));
      }
      // Every worker is SUSPECT and inside its backoff window; wait for
      // the earliest redial slot. Bounded: redial budgets are finite, so
      // workers either come back or go DEAD.
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      continue;
    }
    if (++passes > max_passes) {
      return Status::Internal(
          "rpc round did not complete after " + std::to_string(max_passes) +
          " re-scatter passes" +
          (last_worker_error.ok()
               ? std::string()
               : "; last failure: " + last_worker_error.ToString()));
    }
    if (passes > 1) {
      recovered = true;
      tasks_rescattered_.fetch_add(pending.size(), std::memory_order_relaxed);
    }

    // Lane k holds pending tasks k, k+lanes, ... in order and goes to
    // usable[(base + k) % usable.size()]. The per-round rotating base
    // spreads concurrent small rounds across the whole pool instead of
    // piling them all onto worker 0 first. The shares, though, stay in
    // ascending worker order, the order every round sends and reads in:
    // two rounds sending at once then queue in the same order on every
    // worker, and the first is answered after one compute on each. Sent
    // in rotating order, they could cross (each queued behind the other
    // on one worker): both then waited for two computes and finished
    // together, and their next rounds tended to cross again.
    obs::Span pass_span("rpc.scatter_pass");
    const size_t lanes = std::min(usable.size(), pending.size());
    const size_t base =
        round_offset_.fetch_add(1, std::memory_order_relaxed) %
        usable.size();
    std::vector<WorkerShare> shares(lanes);
    std::vector<size_t> share_of_lane(lanes);
    for (size_t j = 0, next_share = 0; j < usable.size(); ++j) {
      const size_t lane = (j + usable.size() - base) % usable.size();
      if (lane >= lanes) continue;
      shares[next_share].worker = usable[j];
      share_of_lane[lane] = next_share++;
    }
    for (size_t p = 0; p < pending.size(); ++p) {
      shares[share_of_lane[p % lanes]].tasks.push_back(pending[p]);
    }

    // Sends the share's next frame: as many unsent tasks as one frame
    // holds (normally all of them) in a kBatchTask envelope gathered
    // straight from the request buffers. A lone task ships plain — the
    // envelope gains it nothing, and a near-limit request might not fit
    // inside one. On a send failure the share's unsent tasks stay
    // pending.
    const auto send_frame = [&](WorkerShare& share) {
      size_t count = 0;
      size_t bytes = sizeof(uint32_t);
      for (size_t t = share.next; t < share.tasks.size(); ++t) {
        const size_t need =
            kBatchSlotHeaderBytes + requests[share.tasks[t]].size();
        if (count > 0 && (bytes + need > kMaxFramePayloadBytes ||
                          2 * (count + 1) > kMaxSendSpans)) {
          break;
        }
        bytes += need;
        ++count;
      }
      // Envelope and slot headers go into `heads`, reserved up front so the
      // spans into it stay valid.
      const bool batch = count > 1;
      heads.clear();
      heads.reserve(sizeof(uint32_t) + count * kBatchSlotHeaderBytes);
      parts.clear();
      ByteWriter writer(&heads);
      if (batch) writer.WriteU32(static_cast<uint32_t>(count));
      for (size_t t = share.next, mark = 0; t < share.next + count; ++t) {
        const size_t i = share.tasks[t];
        if (batch) {
          writer.WriteU8(kinds[i]);
          writer.WriteU32(static_cast<uint32_t>(requests[i].size()));
        }
        parts.push_back({heads.data() + mark, heads.size() - mark});
        parts.push_back({requests[i].data(), requests[i].size()});
        mark = heads.size();
      }
      const size_t lone = share.tasks[share.next];
      const uint8_t kind =
          batch ? static_cast<uint8_t>(RpcTaskKind::kBatchTask) : kinds[lone];
      if (trace != nullptr) share.sent_ns = obs::MonotonicNanos();
      bool worker_failed = false;
      const Status s = supervisor_->Send(
          share.worker, kind, parts.data(), parts.size(),
          batch ? &share.reply : &result.responses[lone], &share.pending,
          &worker_failed);
      if (!s.ok()) {
        last_worker_error = s;
        return;
      }
      share.in_flight = count;
      if (batch) {
        scatter_batches_.fetch_add(1, std::memory_order_relaxed);
        tasks_coalesced_.fetch_add(count, std::memory_order_relaxed);
      }
    };

    // Receives the reply to the share's outstanding frame and files each
    // task's response and compute seconds. Returns false when the
    // connection failed: the frame's tasks stay pending for the next pass.
    const auto receive_frame = [&](WorkerShare& share) {
      const size_t first = share.next;
      const size_t count = share.in_flight;
      share.next += count;
      share.in_flight = 0;
      const std::vector<uint8_t>& body =
          count == 1 ? result.responses[share.tasks[first]] : share.reply;
      double seconds = 0;
      bool worker_failed = false;
      Status s =
          supervisor_->Receive(&share.pending, &seconds, &worker_failed);
      if (!s.ok()) {
        if (worker_failed) {
          last_worker_error = s;
          return false;
        }
        if (task_error.ok()) task_error = s;
        return true;
      }
      // One rpc.exchange span per frame, from its send to its reply (time
      // queued behind other rounds' frames included); the worker spans go
      // under it once the reply has been split into slots.
      uint32_t exchange = obs::kNoSpan;
      const uint64_t end_ns = trace != nullptr ? obs::MonotonicNanos() : 0;
      if (trace != nullptr) {
        exchange = trace->AddCompleteSpan("rpc.exchange", pass_span.id(),
                                          share.sent_ns, end_ns);
      }
      // A lone task's reply is its response; a batch reply is split into
      // per-task slots.
      if (count == 1) {
        slots.assign(1, BatchSlot{true, seconds, {body.data(), body.size()}});
      } else if (Status parse = ParseBatchTaskResponse(body, count, &slots);
                 !parse.ok()) {
        if (task_error.ok()) {
          task_error = Status::Corruption("rpc batch reply is malformed: " +
                                          parse.ToString());
        }
        return true;
      }
      if (trace != nullptr) {
        AddWorkerSpans(trace, exchange, share.sent_ns, end_ns, seconds, slots);
      }
      for (size_t k = 0; k < count; ++k) {
        const size_t i = share.tasks[first + k];
        const ConstSpan slot = slots[k].body;
        if (!slots[k].ok) {
          if (task_error.ok()) {
            task_error = Status::Internal(
                "rpc batch subtask failed: " +
                std::string(slot.data, slot.data + slot.size));
          }
          continue;
        }
        if (count > 1) {
          result.responses[i].assign(slot.data, slot.data + slot.size);
        }
        result.compute_seconds[i] = slots[k].compute_seconds;
        done[i] = 1;
      }
      return true;
    };

    // Send every share's first frame, then read the replies in send
    // order. Each send holds the worker's connection only for its write:
    // other rounds' frames queue on the same connection meanwhile. A
    // share with tasks left sends its next frame as soon as the previous
    // reply lands (one outstanding frame per share).
    for (WorkerShare& share : shares) send_frame(share);
    for (bool outstanding = true; outstanding;) {
      outstanding = false;
      for (WorkerShare& share : shares) {
        if (share.in_flight == 0) continue;
        if (receive_frame(share) && task_error.ok() &&
            share.next < share.tasks.size()) {
          send_frame(share);
        }
        outstanding = outstanding || share.in_flight > 0;
      }
    }
    if (!task_error.ok()) return task_error;

    std::vector<size_t> still_pending;
    for (size_t i : pending) {
      if (!done[i]) still_pending.push_back(i);
    }
    pending = std::move(still_pending);
  }
  const auto round_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(round_end - round_start).count();
  if (recovered) rounds_recovered_.fetch_add(1, std::memory_order_relaxed);

  FinalizeRound(requests, &result);
  return result;
}

std::vector<obs::WorkerStatsSample> RpcBackend::PollWorkerStats() {
  // Poll only currently-HEALTHY workers: Exchange refuses non-HEALTHY
  // targets anyway, and a scrape must not shortcut the supervisor's
  // redial backoff. A poll failure marks the worker SUSPECT exactly like
  // a round exchange would — scrapes double as passive health probes.
  std::vector<obs::WorkerStatsSample> samples;
  const BackendHealth snapshot = supervisor_->Snapshot();
  const std::vector<uint8_t> empty_request;
  for (size_t w = 0; w < snapshot.workers.size(); ++w) {
    if (snapshot.workers[w].health != WorkerHealth::kHealthy) continue;
    std::vector<uint8_t> response;
    double seconds = 0;
    bool worker_failed = false;
    const Status s = supervisor_->Exchange(
        w, static_cast<uint8_t>(RpcTaskKind::kStatsPollTask), empty_request,
        &response, &seconds, &worker_failed);
    if (!s.ok()) continue;
    obs::WorkerStatsSample sample;
    sample.endpoint = snapshot.workers[w].endpoint;
    if (!obs::ParseRegistrySample(response, &sample.sample).ok()) continue;
    samples.push_back(std::move(sample));
  }
  return samples;
}

StatusOr<std::unique_ptr<SessionHandle>> RpcBackend::OpenSession(
    StatefulTaskKind kind,
    const std::vector<std::vector<uint8_t>>& open_requests) {
  return RpcSessionHandle::Open(
      supervisor_.get(), &session_counters_, kind, open_requests,
      round_offset_.fetch_add(1, std::memory_order_relaxed));
}

std::vector<std::string> SplitEndpoints(const std::string& comma_separated) {
  std::vector<std::string> endpoints;
  size_t begin = 0;
  while (begin <= comma_separated.size()) {
    size_t end = comma_separated.find(',', begin);
    if (end == std::string::npos) end = comma_separated.size();
    if (end > begin) {
      endpoints.push_back(comma_separated.substr(begin, end - begin));
    }
    begin = end + 1;
  }
  return endpoints;
}

void ServeRpcConnection(Socket socket, RpcServeOptions serve) {
  // Worker-side serve instruments, in this process's global registry —
  // the sample a kStatsPollTask scrape ships home. Fetched once.
  static obs::Counter* const requests_total =
      obs::MetricsRegistry::Global().GetCounter(obs::kWorkerRequestsCounter);
  static obs::Counter* const task_errors =
      obs::MetricsRegistry::Global().GetCounter(
          obs::kWorkerTaskErrorsCounter);
  static obs::Histogram* const serve_ms =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kWorkerServeHistogram, obs::Histogram::LatencyBoundariesMs());
  // Session replicas opened over this connection; dies with it, so a
  // master crash or reconnect frees every replica it owned.
  SessionStore sessions(serve.sessions);
  // One Frame for the connection's lifetime: RecvFrame reuses its payload
  // capacity, so steady-state serving allocates nothing per request.
  Frame request;
  for (;;) {
    if (serve.stop != nullptr) {
      // Idle-wait in short slices so a shutdown request is noticed
      // between frames; once bytes are pending the request is drained —
      // received, executed, and answered — before the check repeats.
      // The slices double as the TTL GC heartbeat for abandoned
      // sessions on an otherwise idle connection.
      for (;;) {
        StatusOr<bool> readable = WaitReadable(socket.fd(), 200);
        if (!readable.ok()) return;
        if (readable.value()) break;
        if (serve.stop->load(std::memory_order_relaxed)) return;
        sessions.SweepExpired();
      }
    }
    if (!RecvFrame(socket.fd(), &request).ok()) {
      return;  // clean close between frames, or a broken peer — either way
               // this connection is done
    }
    if (serve.chaos_tasks_remaining != nullptr &&
        request.kind != static_cast<uint8_t>(RpcTaskKind::kPingTask) &&
        serve.chaos_tasks_remaining->fetch_sub(
            1, std::memory_order_relaxed) <= 0) {
      // Chaos axis: crash WITHOUT replying, so the master sees exactly
      // what a mid-round node death looks like. Pings are exempt — the
      // budget counts request frames (a batch envelope once, session
      // frames included), and reconnect probes must not skew it.
      obs::WorkerLogf(
          "--chaos-kill-after budget exhausted, crashing without reply");
      std::_Exit(42);
    }
    requests_total->Add();
    if (request.kind >= kSessionFrameKindBase) {
      // Session-control frame: open/step/close a stateful replica.
      SessionReply session_reply =
          sessions.Handle(request.kind, request.payload);
      if (session_reply.body.size() >
          kMaxFramePayloadBytes - kRpcReplyHeaderBytes) {
        session_reply.kind = RpcReplyKind::kTaskError;
        const std::string msg =
            "session response of " +
            std::to_string(session_reply.body.size()) +
            " bytes exceeds the frame size limit";
        session_reply.body.assign(msg.begin(), msg.end());
      }
      // Gather-send: seconds header + body straight from the reply's
      // buffer, no assembled payload copy.
      if (!SendRpcReply(socket.fd(), session_reply.kind,
                        session_reply.compute_seconds,
                        {session_reply.body.data(), session_reply.body.size()})
               .ok()) {
        return;
      }
      continue;
    }
    const WorkerTask task =
        TaskForKind(static_cast<RpcTaskKind>(request.kind));
    RpcReplyKind reply_kind = RpcReplyKind::kOk;
    std::vector<uint8_t> body;
    const auto start = std::chrono::steady_clock::now();
    if (task == nullptr) {
      reply_kind = RpcReplyKind::kTaskError;
      const std::string msg = "unknown task kind " +
                              std::to_string(request.kind) +
                              " (worker/master version mismatch?)";
      body.assign(msg.begin(), msg.end());
    } else {
      StatusOr<std::vector<uint8_t>> response = task(request.payload);
      if (response.ok()) {
        body = std::move(response).value();
        if (body.size() > kMaxFramePayloadBytes - kRpcReplyHeaderBytes) {
          // Report the oversize as a task error instead of failing the
          // send and tearing down a healthy connection.
          reply_kind = RpcReplyKind::kTaskError;
          const std::string msg = "response of " +
                                  std::to_string(body.size()) +
                                  " bytes exceeds the frame size limit";
          body.assign(msg.begin(), msg.end());
        }
      } else {
        reply_kind = RpcReplyKind::kTaskError;
        const std::string msg = response.status().ToString();
        body.assign(msg.begin(), msg.end());
      }
    }
    const auto end = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(end - start).count();
    serve_ms->Record(seconds * 1e3);
    if (reply_kind != RpcReplyKind::kOk) task_errors->Add();
    obs::WorkerLogDebugf("served %s task: %zu -> %zu bytes in %.3f ms",
                         RpcTaskKindName(static_cast<RpcTaskKind>(request.kind)),
                         request.payload.size(), body.size(), seconds * 1e3);
    if (!SendRpcReply(socket.fd(), reply_kind, seconds,
                      {body.data(), body.size()})
             .ok()) {
      return;
    }
  }
}

Status ServeRpcWorker(TcpListener* listener, RpcServeOptions serve) {
  // Serving threads are detached but counted, so a graceful stop can
  // drain them: stop accepting, then wait (bounded) until every thread
  // finished its in-flight request and noticed the flag.
  struct ServeState {
    std::mutex mutex;
    std::condition_variable cv;
    int active = 0;
  };
  auto state = std::make_shared<ServeState>();
  for (;;) {
    if (serve.stop != nullptr) {
      if (serve.stop->load(std::memory_order_relaxed)) break;
      StatusOr<bool> readable = WaitReadable(listener->fd(), 200);
      if (!readable.ok()) return readable.status();
      if (!readable.value()) continue;  // timeout slice: re-check stop
    }
    StatusOr<Socket> accepted = listener->Accept(/*timeout_ms=*/-1);
    if (!accepted.ok()) return accepted.status();
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      ++state->active;
    }
    std::thread(
        [state, serve](Socket connection) {
          ServeRpcConnection(std::move(connection), serve);
          std::lock_guard<std::mutex> lock(state->mutex);
          --state->active;
          state->cv.notify_all();
        },
        std::move(accepted).value())
        .detach();
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  const bool drained =
      state->cv.wait_for(lock, std::chrono::seconds(10),
                         [&state] { return state->active == 0; });
  if (!drained) {
    // Exiting now would kill detached threads mid-task; the caller must
    // not report a clean drain (mpqopt_worker exits non-zero on this).
    return Status::Internal(
        "shutdown grace period expired with " +
        std::to_string(state->active) +
        " connection(s) still serving an in-flight task");
  }
  return Status::OK();
}

}  // namespace mpqopt
