// Copyright 2026 mpqopt authors.

#include "cluster/supervisor/worker_supervisor.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>

#include "cluster/rpc_protocol.h"
#include "cluster/task_registry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace mpqopt {

namespace {

using Clock = std::chrono::steady_clock;

/// Bound on the ping reply after a (re)dial. Unlike task replies, a
/// health probe must never wait indefinitely.
constexpr int kPingTimeoutMs = 2000;

int MillisUntil(Clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<int64_t>(remaining.count(), 0));
}

}  // namespace

/// One stream to a worker, shared by every frame queued on it.
struct WorkerSupervisor::Connection {
  explicit Connection(Socket connected) : socket(std::move(connected)) {}

  /// Shut down on failure; closed by the destructor, after the last user.
  Socket socket;
  /// Held for one frame's write and its place in `queue`.
  std::mutex send_mutex;
  /// Guards the rest, and the state of every queued PendingReply.
  std::mutex mutex;
  std::condition_variable cv;
  /// Frames whose reply is not read yet, in send order (the worker's
  /// answer order).
  std::deque<PendingReply*> queue;
  /// A thread is reading the next reply, or polling for it in a stalled
  /// send. At most one at a time.
  bool reading = false;
  /// The first connection-level error; nothing is queued after it.
  Status failure;
};

/// A stalled send's backpressure: while the worker is not taking the
/// frame, read the connection's replies unless another thread already
/// does, so the worker is never stuck writing a reply that nobody reads
/// (see the header comment).
class WorkerSupervisor::ReplyPump : public SendBackpressure {
 public:
  ReplyPump(WorkerSupervisor* supervisor, Worker* worker,
            Connection* connection)
      : supervisor_(supervisor), worker_(worker), connection_(connection) {}

  Status AwaitSendSpace(int fd) override {
    Connection* const c = connection_;
    std::unique_lock<std::mutex> lock(c->mutex);
    if (c->reading) {
      // Another thread drains the replies; retry once it stops reading.
      c->cv.wait(lock, [c] { return !c->reading || !c->failure.ok(); });
      return c->failure;
    }
    if (!c->failure.ok()) return c->failure;
    c->reading = true;
    lock.unlock();
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN | POLLOUT;
    int ready = 0;
    do {
      ready = ::poll(&pfd, 1, supervisor_->options_.io_timeout_ms);
    } while (ready < 0 && errno == EINTR);
    const int poll_errno = errno;
    lock.lock();
    c->reading = false;
    Status s = Status::OK();
    if (ready < 0) {
      s = Status::Internal(std::string("poll failed: ") +
                           std::strerror(poll_errno));
    } else if (ready == 0) {
      s = Status::Internal("send timed out");
    } else if ((pfd.revents & POLLIN) != 0) {
      if (!c->queue.empty()) {
        supervisor_->ReadNextReply(worker_, c, &lock);
        return c->failure;
      }
      // Nothing answered is due: the worker closed the stream.
      s = Status::Internal("peer closed the connection");
    }
    c->cv.notify_all();
    return s.ok() ? c->failure : s;
  }

 private:
  WorkerSupervisor* const supervisor_;
  Worker* const worker_;
  Connection* const connection_;
};

WorkerSupervisor::PendingReply::~PendingReply() {
  // The connection's queue, and maybe a reader, still point at a frame
  // that was sent and not received.
  MPQOPT_CHECK(connection_ == nullptr);
}

int WorkerSupervisor::BackoffDelayMs(const SupervisorOptions& options,
                                     int failed_redials) {
  if (failed_redials <= 0) return 0;  // first redial of an episode: now
  const int initial = std::max(options.backoff_initial_ms, 0);
  const int cap = std::max(options.backoff_max_ms, initial);
  // Shift capped well below the int range so the doubling cannot wrap.
  const int doublings = std::min(failed_redials - 1, 20);
  const int64_t delay = static_cast<int64_t>(initial) << doublings;
  return static_cast<int>(std::min<int64_t>(delay, cap));
}

StatusOr<std::unique_ptr<WorkerSupervisor>> WorkerSupervisor::Connect(
    const std::vector<std::string>& endpoints, SupervisorOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "rpc backend needs at least one worker endpoint");
  }
  std::unique_ptr<WorkerSupervisor> supervisor(
      new WorkerSupervisor(options));
  for (const std::string& endpoint : endpoints) {
    StatusOr<Socket> socket = supervisor->EstablishConnection(endpoint);
    if (!socket.ok()) {
      return Status::Internal("cannot connect to rpc worker " + endpoint +
                              ": " + socket.status().ToString());
    }
    auto worker = std::make_unique<Worker>();
    worker->endpoint = endpoint;
    worker->connection =
        std::make_shared<Connection>(std::move(socket).value());
    supervisor->workers_.push_back(std::move(worker));
  }
  return supervisor;
}

StatusOr<Socket> WorkerSupervisor::EstablishConnection(
    const std::string& endpoint) const {
  StatusOr<Socket> socket = DialTcp(endpoint, options_.connect_timeout_ms);
  if (!socket.ok()) return socket.status();
  // Ping-verify before trusting the connection: an accepting listener is
  // not yet a serving worker (the process may be wedged, or something
  // else entirely may own the port after a restart).
  const uint64_t nonce =
      ping_nonce_.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL +
      0x7f4a7c15u;
  std::vector<uint8_t> probe(sizeof(nonce));
  for (size_t i = 0; i < sizeof(nonce); ++i) {
    probe[i] = static_cast<uint8_t>(nonce >> (8 * i));
  }
  Status s = SendFrame(socket.value().fd(),
                       static_cast<uint8_t>(RpcTaskKind::kPingTask), probe);
  if (!s.ok()) return Status::Internal("ping send failed: " + s.ToString());
  uint8_t reply_kind = 0;
  double seconds = 0;
  std::vector<uint8_t> echo;
  s = RecvRpcReply(socket.value().fd(), &reply_kind, &seconds, &echo,
                   kPingTimeoutMs);
  if (!s.ok()) return Status::Internal("ping reply failed: " + s.ToString());
  if (reply_kind != static_cast<uint8_t>(RpcReplyKind::kOk) || echo != probe) {
    return Status::Internal("ping reply mismatch (not an mpqopt worker, or "
                            "a worker/master version mismatch)");
  }
  return socket;
}

WorkerHealth WorkerSupervisor::HealthOf(const Worker& worker) const {
  std::lock_guard<std::mutex> state(worker.state_mutex);
  return worker.health;
}

void WorkerSupervisor::ReadNextReply(Worker* worker, Connection* c,
                                     std::unique_lock<std::mutex>* lock) {
  PendingReply* const owner = c->queue.front();
  c->queue.pop_front();
  owner->state_ = PendingReply::State::kReading;
  c->reading = true;
  lock->unlock();
  // The reply body lands straight in the owner's buffer (header split
  // off by the transport); on error replies it holds the status text.
  uint8_t kind = 0;
  double seconds = 0;
  Status s = RecvRpcReply(c->socket.fd(), &kind, &seconds, owner->body_,
                          options_.io_timeout_ms);
  if (!s.ok()) {
    s = Status::Internal("rpc worker " + worker->endpoint +
                         " disconnected or timed out mid-round: " +
                         s.ToString());
  } else if (kind > static_cast<uint8_t>(RpcReplyKind::kSessionError)) {
    s = Status::Corruption("rpc worker " + worker->endpoint +
                           " sent an unknown reply kind " +
                           std::to_string(kind));
  }
  lock->lock();
  c->reading = false;
  if (!s.ok()) s = FailConnection(worker, c, s);
  owner->state_ = s.ok() ? PendingReply::State::kFiled
                         : PendingReply::State::kFailed;
  owner->reply_kind_ = kind;
  owner->seconds_ = seconds;
  owner->error_ = s;
  c->cv.notify_all();
}

Status WorkerSupervisor::FailConnection(Worker* worker, Connection* c,
                                        const Status& error) {
  if (!c->failure.ok()) return c->failure;
  c->failure = error;
  c->socket.Shutdown();
  for (PendingReply* pending : c->queue) {
    pending->state_ = PendingReply::State::kFailed;
    pending->error_ = error;
  }
  c->queue.clear();
  c->cv.notify_all();

  std::lock_guard<std::mutex> state(worker->state_mutex);
  ++worker->io_failures;
  worker->last_error = error.ToString();
  // Only the live connection's failure moves the health state. Every
  // caller holds a reference of its own, so dropping the worker's here
  // cannot destroy the connection under its locked mutex.
  if (worker->connection.get() != c) return error;
  worker->connection.reset();
  if (worker->health == WorkerHealth::kDead) return error;
  if (options_.max_redials <= 0) {
    // No redial budget: first connection failure is final.
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState, "%s %s -> dead: %s",
        worker->endpoint.c_str(), WorkerHealthName(worker->health),
        error.ToString().c_str());
    worker->health = WorkerHealth::kDead;
    return error;
  }
  if (worker->health == WorkerHealth::kHealthy) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState, "%s healthy -> suspect: %s",
        worker->endpoint.c_str(), error.ToString().c_str());
    worker->health = WorkerHealth::kSuspect;
    worker->episode_redial_failures = 0;
    worker->next_redial_at = Clock::now();  // first redial: immediately
  }
  return error;
}

bool WorkerSupervisor::TryRedial(Worker* worker) {
  {
    // Re-check under the state lock: a concurrent pass holding the dial
    // lock before us may have already redialed (HEALTHY), burned the
    // budget (DEAD), or pushed the backoff window out.
    std::lock_guard<std::mutex> state(worker->state_mutex);
    if (worker->health == WorkerHealth::kHealthy) return true;
    if (worker->health == WorkerHealth::kDead) return false;
    if (Clock::now() < worker->next_redial_at) return false;
  }
  reconnect_attempts_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<Socket> socket = EstablishConnection(worker->endpoint);
  if (socket.ok()) {
    auto connection = std::make_shared<Connection>(std::move(socket).value());
    std::lock_guard<std::mutex> state(worker->state_mutex);
    worker->connection = std::move(connection);
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState, "%s %s -> healthy (redial ok)",
        worker->endpoint.c_str(), WorkerHealthName(worker->health));
    worker->health = WorkerHealth::kHealthy;
    worker->episode_redial_failures = 0;
    ++worker->reconnects;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::lock_guard<std::mutex> state(worker->state_mutex);
  ++worker->redial_failures;
  ++worker->episode_redial_failures;
  worker->last_error = socket.status().ToString();
  if (worker->episode_redial_failures >= options_.max_redials) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kWorkerState,
        "%s suspect -> dead (redial budget exhausted): %s",
        worker->endpoint.c_str(), socket.status().ToString().c_str());
    worker->health = WorkerHealth::kDead;
  } else {
    worker->next_redial_at =
        Clock::now() + std::chrono::milliseconds(BackoffDelayMs(
                           options_, worker->episode_redial_failures));
  }
  return false;
}

void AddWorkerSpans(obs::QueryTrace* trace, uint32_t exchange,
                    uint64_t sent_ns, uint64_t end_ns, double serve_seconds,
                    const std::vector<BatchSlot>& slots) {
  // Peer-reported seconds to nanoseconds, at most `limit` (a NaN or a
  // negative reads as 0).
  const auto nanos = [](double seconds, uint64_t limit) -> uint64_t {
    const double ns = seconds * 1e9;
    if (!(ns > 0)) return 0;
    return ns < static_cast<double>(limit) ? static_cast<uint64_t>(ns) : limit;
  };
  const uint64_t serve_start =
      end_ns - nanos(serve_seconds, end_ns - sent_ns);
  const uint32_t serve =
      trace->AddCompleteSpan("worker.serve", exchange, serve_start, end_ns);
  uint64_t at = serve_start;
  for (const BatchSlot& slot : slots) {
    const uint64_t end = at + nanos(slot.compute_seconds, end_ns - at);
    trace->AddCompleteSpan("worker.compute", serve, at, end);
    at = end;
  }
}

Status WorkerSupervisor::Exchange(size_t w, uint8_t task_kind,
                                  const std::vector<uint8_t>& request,
                                  std::vector<uint8_t>* response,
                                  double* compute_seconds,
                                  bool* worker_failed) {
  const ConstSpan part{request.data(), request.size()};
  return ExchangeV(w, task_kind, &part, 1, response, compute_seconds,
                   worker_failed);
}

Status WorkerSupervisor::ExchangeV(size_t w, uint8_t task_kind,
                                   const ConstSpan* parts, size_t num_parts,
                                   std::vector<uint8_t>* response,
                                   double* compute_seconds,
                                   bool* worker_failed) {
  // Covers the whole exchange: the send (the send lock wait included),
  // the time queued behind other frames on the connection, the compute
  // and the reply.
  obs::Span exchange_span("rpc.exchange");
  obs::QueryTrace* const trace = exchange_span.trace();
  const uint64_t sent_ns = trace != nullptr ? obs::MonotonicNanos() : 0;
  PendingReply pending;
  Status s = Send(w, task_kind, parts, num_parts, response, &pending,
                  worker_failed);
  if (!s.ok()) return s;
  s = Receive(&pending, compute_seconds, worker_failed);
  if (s.ok() && trace != nullptr) {
    // The frame is one task: its one worker.compute is the whole serve.
    AddWorkerSpans(trace, exchange_span.id(), sent_ns, obs::MonotonicNanos(),
                   *compute_seconds, {BatchSlot{true, *compute_seconds, {}}});
  }
  return s;
}

Status WorkerSupervisor::Send(size_t w, uint8_t task_kind,
                              const ConstSpan* parts, size_t num_parts,
                              std::vector<uint8_t>* response,
                              PendingReply* pending, bool* worker_failed) {
  MPQOPT_CHECK_LT(w, workers_.size());
  MPQOPT_CHECK(pending->connection_ == nullptr);
  Worker* const worker = workers_[w].get();
  std::shared_ptr<Connection> connection;
  WorkerHealth health = WorkerHealth::kHealthy;
  {
    std::lock_guard<std::mutex> state(worker->state_mutex);
    health = worker->health;
    if (health == WorkerHealth::kHealthy) connection = worker->connection;
  }
  if (connection == nullptr) {
    // A concurrent round failed this worker after the scatter chose it.
    *worker_failed = true;
    return Status::Internal("rpc worker " + worker->endpoint + " is " +
                            WorkerHealthName(health));
  }
  Connection* const c = connection.get();
  const std::lock_guard<std::mutex> send(c->send_mutex);
  Status s;
  {
    const std::lock_guard<std::mutex> lock(c->mutex);
    s = c->failure;
  }
  if (s.ok()) {
    ReplyPump pump(this, worker, c);
    s = SendFrameV(c->socket.fd(), task_kind, parts, num_parts, &pump);
  }
  const std::lock_guard<std::mutex> lock(c->mutex);
  if (s.ok() && c->failure.ok()) {
    // Still under the send lock: the frame's FIFO place is its wire place.
    pending->connection_ = std::move(connection);
    pending->worker_ = w;
    pending->body_ = response;
    pending->state_ = PendingReply::State::kQueued;
    c->queue.push_back(pending);
    return Status::OK();
  }
  *worker_failed = true;
  if (s.ok()) return c->failure;  // another thread failed it meanwhile
  return FailConnection(worker, c,
                        Status::Internal("rpc worker " + worker->endpoint +
                                         ": request send failed: " +
                                         s.ToString()));
}

Status WorkerSupervisor::Receive(PendingReply* pending,
                                 double* compute_seconds,
                                 bool* worker_failed) {
  MPQOPT_CHECK(pending->connection_ != nullptr);
  const std::shared_ptr<Connection> connection =
      std::move(pending->connection_);
  Connection* const c = connection.get();
  Worker* const worker = workers_[pending->worker_].get();
  {
    const auto answered = [pending] {
      return pending->state_ == PendingReply::State::kFiled ||
             pending->state_ == PendingReply::State::kFailed;
    };
    std::unique_lock<std::mutex> lock(c->mutex);
    while (!answered()) {
      if (c->reading) {
        c->cv.wait(lock, [&] { return answered() || !c->reading; });
      } else {
        ReadNextReply(worker, c, &lock);
      }
    }
  }
  if (pending->state_ == PendingReply::State::kFailed) {
    *worker_failed = true;
    return pending->error_;
  }
  *worker_failed = false;
  const std::vector<uint8_t>& body = *pending->body_;
  if (pending->reply_kind_ == static_cast<uint8_t>(RpcReplyKind::kTaskError)) {
    // The task itself failed on a healthy worker. Deterministic — the
    // same bytes would fail anywhere — so the round must not retry it,
    // and the connection stays usable for later rounds.
    return Status::Internal("rpc worker " + worker->endpoint +
                            " task failed: " +
                            std::string(body.begin(), body.end()));
  }
  if (pending->reply_kind_ ==
      static_cast<uint8_t>(RpcReplyKind::kSessionError)) {
    // The referenced session replica is gone on this worker (unknown or
    // TTL-expired id). The connection itself is healthy; the session
    // layer recovers by re-open + replay on kNotFound.
    return Status::NotFound("rpc worker " + worker->endpoint +
                            " lost the session: " +
                            std::string(body.begin(), body.end()));
  }
  *compute_seconds = pending->seconds_;
  return Status::OK();
}

std::vector<size_t> WorkerSupervisor::UsableWorkers() {
  std::vector<size_t> usable;
  usable.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker* worker = workers_[i].get();
    bool redial = false;
    {
      std::lock_guard<std::mutex> state(worker->state_mutex);
      switch (worker->health) {
        case WorkerHealth::kHealthy:
          usable.push_back(i);
          break;
        case WorkerHealth::kSuspect:
          redial = Clock::now() >= worker->next_redial_at;
          break;
        case WorkerHealth::kDead:
          break;
      }
    }
    if (redial) {
      // One dial per worker at a time; TryRedial re-checks the state
      // once inside, since another pass may have won the race.
      std::lock_guard<std::mutex> dial(worker->dial_mutex);
      if (TryRedial(worker)) usable.push_back(i);
    }
  }
  return usable;
}

int WorkerSupervisor::NextRedialDelayMs() const {
  int earliest = -1;
  bool any_healthy = false;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    std::lock_guard<std::mutex> state(worker->state_mutex);
    if (worker->health == WorkerHealth::kHealthy) {
      any_healthy = true;
      continue;
    }
    if (worker->health != WorkerHealth::kSuspect) continue;
    const int delay = std::max(MillisUntil(worker->next_redial_at), 1);
    if (earliest < 0 || delay < earliest) earliest = delay;
  }
  if (earliest >= 0) return earliest;
  // No SUSPECT worker — but a HEALTHY one means "retry now", not "all
  // dead": a concurrent round may have redialed a worker between the
  // caller's empty UsableWorkers() pass and this call.
  if (any_healthy) return 1;
  return -1;
}

WorkerHealth WorkerSupervisor::health(size_t w) const {
  MPQOPT_CHECK_LT(w, workers_.size());
  return HealthOf(*workers_[w]);
}

BackendHealth WorkerSupervisor::Snapshot() const {
  BackendHealth health;
  health.workers.reserve(workers_.size());
  for (const std::unique_ptr<Worker>& worker : workers_) {
    std::lock_guard<std::mutex> state(worker->state_mutex);
    WorkerHealthSnapshot snapshot;
    snapshot.endpoint = worker->endpoint;
    snapshot.health = worker->health;
    snapshot.reconnects = worker->reconnects;
    snapshot.redial_failures = worker->redial_failures;
    snapshot.io_failures = worker->io_failures;
    snapshot.last_error = worker->last_error;
    health.workers.push_back(std::move(snapshot));
  }
  health.reconnect_attempts =
      reconnect_attempts_.load(std::memory_order_relaxed);
  health.reconnects = reconnects_.load(std::memory_order_relaxed);
  return health;
}

}  // namespace mpqopt
