// Copyright 2026 mpqopt authors.

#include "obs/telemetry_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/trace.h"

namespace mpqopt {
namespace obs {
namespace {

/// Accept-loop slice: the thread re-checks the stop flag at least this
/// often (mirrors ServeRpcWorker's cadence).
constexpr int kAcceptSliceMs = 200;

/// A scrape request head must fit here — GET lines are tiny; anything
/// larger is a client this server does not serve.
constexpr size_t kMaxRequestBytes = 8192;

/// Whole-request deadline for reading one HTTP head.
constexpr int kRequestTimeoutMs = 5000;

const char* HttpStatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

/// Writes all of `data` to `fd`, looping over partial sends. Best-effort:
/// a scrape client that hangs up mid-response is its own problem.
void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

void SendHttpResponse(int fd, int status, const std::string& content_type,
                      const std::string& body) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                status, HttpStatusText(status), content_type.c_str(),
                body.size());
  SendAll(fd, head + body);
}

/// Reads one request head (through the blank line) with a whole-request
/// deadline. Returns false on timeout, oversize, or disconnect.
bool RecvRequestHead(int fd, std::string* head) {
  head->clear();
  const uint64_t deadline_ns =
      MonotonicNanos() + uint64_t{kRequestTimeoutMs} * 1000000ull;
  char buf[1024];
  while (head->find("\r\n\r\n") == std::string::npos) {
    const uint64_t now = MonotonicNanos();
    if (now >= deadline_ns || head->size() > kMaxRequestBytes) return false;
    const int remaining_ms =
        static_cast<int>((deadline_ns - now) / 1000000ull) + 1;
    StatusOr<bool> readable = WaitReadable(fd, remaining_ms);
    if (!readable.ok() || !readable.value()) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    head->append(buf, static_cast<size_t>(n));
  }
  return true;
}

/// "GET /metrics HTTP/1.1" -> method + path (query string stripped).
bool ParseRequestLine(const std::string& head, std::string* method,
                      std::string* path) {
  const size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  *method = line.substr(0, sp1);
  *path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path->find('?');
  if (query != std::string::npos) path->resize(query);
  return true;
}

void AppendJsonString(const std::string& value, std::string* out) {
  out->push_back('"');
  for (const char c : value) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

TelemetryServer::TelemetryServer(TelemetryOptions options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricsRegistry::Global();
  }
  if (options_.recorder == nullptr) {
    options_.recorder = &FlightRecorder::Global();
  }
}

StatusOr<std::unique_ptr<TelemetryServer>> TelemetryServer::Start(
    TelemetryOptions options) {
  std::unique_ptr<TelemetryServer> server(
      new TelemetryServer(std::move(options)));
  StatusOr<TcpListener> listener =
      TcpListener::Bind(server->options_.host, server->options_.port);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  server->port_ = server->listener_.port();
  server->thread_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void TelemetryServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    StatusOr<bool> ready = WaitReadable(listener_.fd(), kAcceptSliceMs);
    if (!ready.ok()) return;  // listener fd is gone; nothing to serve
    if (!ready.value()) continue;
    StatusOr<Socket> conn = listener_.Accept(kAcceptSliceMs);
    if (!conn.ok()) continue;
    ServeConnection(std::move(conn).value());
  }
}

void TelemetryServer::ServeConnection(Socket conn) {
  std::string head;
  if (!RecvRequestHead(conn.fd(), &head)) return;
  std::string method, path;
  if (!ParseRequestLine(head, &method, &path)) return;
  if (method != "GET") {
    SendHttpResponse(conn.fd(), 405, "text/plain", "GET only\n");
    return;
  }
  if (path == "/metrics") {
    SendHttpResponse(conn.fd(), 200,
                     "text/plain; version=0.0.4; charset=utf-8",
                     RenderMetrics());
  } else if (path == "/healthz") {
    SendHttpResponse(conn.fd(), 200, "application/json",
                     RenderHealthJson(nullptr));
  } else if (path == "/readyz") {
    int status = 200;
    const std::string body = RenderHealthJson(&status);
    SendHttpResponse(conn.fd(), status, "application/json", body);
  } else if (path == "/statz") {
    SendHttpResponse(conn.fd(), 200, "text/plain",
                     options_.registry->StatzDump());
  } else if (path == "/debug/flightrecorder") {
    SendHttpResponse(conn.fd(), 200, "text/plain",
                     options_.recorder->DumpText());
  } else {
    SendHttpResponse(conn.fd(), 404, "text/plain", "not found\n");
  }
}

std::vector<WorkerStatsSample> TelemetryServer::PolledWorkerStats() {
  if (options_.backend == nullptr) return {};
  const uint64_t ttl_ns =
      static_cast<uint64_t>(options_.worker_poll_ttl_ms) * 1000000ull;
  {
    std::lock_guard<std::mutex> lock(poll_mutex_);
    if (poll_valid_ && MonotonicNanos() - last_poll_ns_ < ttl_ns) {
      return poll_cache_;
    }
  }
  // Poll outside the lock: a slow worker must not serialize /healthz
  // behind /metrics. Concurrent scrapes may both poll; the TTL exists to
  // protect the workers from scrape *storms*, not from one overlap.
  std::vector<WorkerStatsSample> fresh = options_.backend->PollWorkerStats();
  std::lock_guard<std::mutex> lock(poll_mutex_);
  poll_cache_ = std::move(fresh);
  poll_valid_ = true;
  last_poll_ns_ = MonotonicNanos();
  return poll_cache_;
}

std::string TelemetryServer::RenderMetrics() {
  std::vector<LabeledSample> samples;
  samples.push_back(LabeledSample{"", options_.registry->Sample()});
  for (WorkerStatsSample& worker : PolledWorkerStats()) {
    samples.push_back(
        LabeledSample{worker.endpoint, std::move(worker.sample)});
  }
  return RenderPrometheus(samples);
}

std::string TelemetryServer::RenderHealthJson(int* http_status) {
  const Status init =
      options_.init_status ? options_.init_status() : Status::OK();
  BackendHealth health;
  if (options_.backend != nullptr) health = options_.backend->health();
  const size_t healthy = health.CountWorkers(WorkerHealth::kHealthy);

  // READY: init ok and every remote worker serving (trivially true for
  // the in-process backend and standalone workers). DEGRADED: serving, but
  // at least one worker is not HEALTHY. UNREADY: init failed, or remote
  // workers exist and none is HEALTHY — /readyz turns 503 only here.
  const char* state = "READY";
  if (!init.ok() || (!health.workers.empty() && healthy == 0)) {
    state = "UNREADY";
  } else if (healthy < health.workers.size()) {
    state = "DEGRADED";
  }
  if (http_status != nullptr) {
    *http_status = std::strcmp(state, "UNREADY") == 0 ? 503 : 200;
  }

  std::string out = "{\"state\":";
  AppendJsonString(state, &out);
  out += ",\"init\":";
  AppendJsonString(init.ok() ? "ok" : init.ToString(), &out);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"workers_healthy\":%zu,\"workers_total\":%zu,"
                "\"workers\":[",
                healthy, health.workers.size());
  out += buf;
  for (size_t i = 0; i < health.workers.size(); ++i) {
    const WorkerHealthSnapshot& w = health.workers[i];
    if (i > 0) out += ",";
    out += "{\"endpoint\":";
    AppendJsonString(w.endpoint, &out);
    out += ",\"health\":";
    AppendJsonString(WorkerHealthName(w.health), &out);
    std::snprintf(buf, sizeof(buf),
                  ",\"reconnects\":%llu,\"redial_failures\":%llu,"
                  "\"io_failures\":%llu,\"last_error\":",
                  static_cast<unsigned long long>(w.reconnects),
                  static_cast<unsigned long long>(w.redial_failures),
                  static_cast<unsigned long long>(w.io_failures));
    out += buf;
    AppendJsonString(w.last_error, &out);
    out += "}";
  }
  out += "]}";
  return out;
}

StatusOr<HttpResponse> HttpGet(const std::string& endpoint,
                               const std::string& path, int timeout_ms) {
  StatusOr<Socket> conn = DialTcp(endpoint, timeout_ms);
  if (!conn.ok()) return conn.status();
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\n"
                              "Host: " +
                              endpoint +
                              "\r\n"
                              "Connection: close\r\n"
                              "\r\n";
  SendAll(conn.value().fd(), request);

  // The server closes after the response (Connection: close), so read to
  // EOF under one whole-response deadline.
  std::string raw;
  const uint64_t deadline_ns =
      MonotonicNanos() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  char buf[4096];
  for (;;) {
    const uint64_t now = MonotonicNanos();
    if (now >= deadline_ns) {
      return Status::Internal("http get " + path + " timed out");
    }
    const int remaining_ms =
        static_cast<int>((deadline_ns - now) / 1000000ull) + 1;
    StatusOr<bool> readable =
        WaitReadable(conn.value().fd(), remaining_ms);
    if (!readable.ok()) return readable.status();
    if (!readable.value()) {
      return Status::Internal("http get " + path + " timed out");
    }
    const ssize_t n = ::recv(conn.value().fd(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("http get recv failed: " +
                              std::string(std::strerror(errno)));
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }

  HttpResponse response;
  if (raw.compare(0, 5, "HTTP/") != 0) {
    return Status::Corruption("not an http response");
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos) {
    return Status::Corruption("malformed http status line");
  }
  response.status = std::atoi(raw.c_str() + sp + 1);
  const size_t body_at = raw.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    return Status::Corruption("http response has no header terminator");
  }
  response.body = raw.substr(body_at + 4);
  return response;
}

}  // namespace obs
}  // namespace mpqopt
