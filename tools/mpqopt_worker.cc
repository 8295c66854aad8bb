// Copyright 2026 mpqopt authors.
//
// mpqopt_worker — the remote worker server behind --backend=rpc.
//
// Listens on a TCP endpoint and serves framed worker-task requests
// (MpqOptimizer::WorkerMain and the diagnostic kinds; see
// cluster/task_registry.h) plus stateful session
// frames (SMA memo replicas and other registered session kinds; see
// cluster/session/). One serving thread per master connection;
// connections are persistent and each carries a sequential
// request/response stream with its own session store — a replica is
// freed when its session closes, when its TTL expires, or when the
// owning connection drops.
//
//   mpqopt_worker --listen=127.0.0.1:7001
//   mpqopt_worker --listen=0.0.0.0:0        # ephemeral port, printed below
//
// On startup the worker prints "LISTENING <port>" to stdout — the RPC
// test fixtures and deployment scripts read the chosen port from there.
//
// Shutdown: SIGTERM or SIGINT triggers a clean drain — the listener
// stops accepting, every serving thread finishes its in-flight request
// (executed and answered), idle connections close, and the process exits
// 0. Anything else (SIGKILL, --chaos-kill-after) is a crash, which the
// master's supervision subsystem (cluster/supervisor/) handles by
// redialing and re-scattering — and, for sessions, re-opening and
// replaying the lost replicas.
//
// The usage text is generated from kFlagDocs below, like mpqopt_cli's:
// new flags document themselves by adding a row, so --help cannot drift
// from the real option surface.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "cluster/rpc_backend.h"
#include "net/frame_transport.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry_server.h"
#include "obs/worker_log.h"

namespace mpqopt {
namespace {

/// Set by the SIGTERM/SIGINT handler; the accept loop and every serving
/// thread poll it in bounded slices. std::atomic<bool> is lock-free on
/// every platform this builds on, so the store is async-signal-safe.
std::atomic<bool> g_stop{false};

void HandleShutdownSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

void InstallShutdownHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

struct WorkerOptions {
  std::string listen = "0.0.0.0:0";
  int64_t chaos_kill_after = -1;
  int telemetry_port = -1;  // -1 = no telemetry server
  obs::WorkerLogLevel log_level = obs::WorkerLogLevel::kInfo;
  SessionStoreOptions sessions;
  bool help = false;
};

/// One row of the option surface: flag name, value placeholder shown in
/// --help (null for valueless flags), and help text. This table is the
/// single authority for the usage message.
struct FlagDoc {
  const char* name;
  const char* value;  // placeholder, or nullptr for boolean flags
  const char* help;
};

const FlagDoc kFlagDocs[] = {
    {"--listen", "HOST:PORT",
     "bind address (default 0.0.0.0:0; port 0 picks an ephemeral port, "
     "printed as \"LISTENING <port>\")"},
    {"--chaos-kill-after", "N",
     "chaos test axis: serve N request frames (a round's whole share for "
     "this worker is one frame), then crash without replying (pings "
     "exempt)"},
    {"--session-ttl-ms", "MS",
     "reclaim a session replica untouched for MS milliseconds "
     "(default 900000; 0 disables TTL GC)"},
    {"--session-max-bytes", "N",
     "per-session replica byte cap; an open/step that exceeds it fails "
     "deterministically and drops the replica (default 268435456)"},
    {"--telemetry-port", "PORT",
     "serve /metrics, /healthz, /statz and /debug/flightrecorder over "
     "HTTP on 127.0.0.1:PORT (0 picks an ephemeral port, printed as "
     "\"TELEMETRY <port>\"); off by default"},
    {"--log-level", "LEVEL",
     "stderr log threshold: error, info, or debug (default info)"},
    {"--help", nullptr, "print this message"},
};

void PrintUsage(FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [flags]\n", argv0);
  for (const FlagDoc& doc : kFlagDocs) {
    std::string flag = doc.name;
    if (doc.value != nullptr) {
      flag += "=";
      flag += doc.value;
    }
    std::fprintf(out, "  %-26s %s\n", flag.c_str(), doc.help);
  }
  std::fprintf(out,
               "Serves mpqopt worker tasks and stateful sessions until "
               "killed;\nSIGTERM/SIGINT drain in-flight tasks and exit 0.\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Parses a non-negative integer flag value; false (with a message) on
/// junk.
bool ParseNonNegative(const std::string& value, const char* flag,
                      int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || *out < 0) {
    std::fprintf(stderr, "invalid %s value: %s\n", flag, value.c_str());
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, WorkerOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    int64_t parsed = 0;
    if (ParseFlag(argv[i], "--listen", &v)) {
      opts->listen = v;
    } else if (ParseFlag(argv[i], "--chaos-kill-after", &v)) {
      if (!ParseNonNegative(v, "--chaos-kill-after", &parsed)) return false;
      opts->chaos_kill_after = parsed;
    } else if (ParseFlag(argv[i], "--session-ttl-ms", &v)) {
      if (!ParseNonNegative(v, "--session-ttl-ms", &parsed)) return false;
      if (parsed > std::numeric_limits<int>::max()) {
        // Truncating would wrap negative, which SweepExpired reads as
        // "TTL disabled" — the opposite of what was asked for.
        std::fprintf(stderr, "--session-ttl-ms value too large: %s\n",
                     v.c_str());
        return false;
      }
      opts->sessions.ttl_ms = static_cast<int>(parsed);
    } else if (ParseFlag(argv[i], "--session-max-bytes", &v)) {
      if (!ParseNonNegative(v, "--session-max-bytes", &parsed)) return false;
      opts->sessions.max_session_bytes = static_cast<uint64_t>(parsed);
    } else if (ParseFlag(argv[i], "--telemetry-port", &v)) {
      if (!ParseNonNegative(v, "--telemetry-port", &parsed) ||
          parsed > 65535) {
        std::fprintf(stderr, "invalid --telemetry-port value: %s\n",
                     v.c_str());
        return false;
      }
      opts->telemetry_port = static_cast<int>(parsed);
    } else if (ParseFlag(argv[i], "--log-level", &v)) {
      if (!obs::ParseWorkerLogLevel(v.c_str(), &opts->log_level)) {
        std::fprintf(stderr,
                     "invalid --log-level value: %s (expected "
                     "error|info|debug)\n",
                     v.c_str());
        return false;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      opts->help = true;
      return true;  // help wins over everything else on the line
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  WorkerOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  if (opts.help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  obs::SetWorkerLogLevel(opts.log_level);

  std::string host;
  int port = 0;
  Status s = ParseHostPort(opts.listen, &host, &port);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  StatusOr<TcpListener> listener = TcpListener::Bind(host, port);
  if (!listener.ok()) {
    std::fprintf(stderr, "error: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  InstallShutdownHandlers();
  // SIGUSR1 dumps the flight recorder; a fatal MPQOPT_CHECK failure
  // dumps it automatically on the way down.
  obs::InstallFlightRecorderSignalDump();
  obs::InstallFlightRecorderFatalDump();
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (opts.telemetry_port >= 0) {
    obs::TelemetryOptions topts;
    topts.port = opts.telemetry_port;
    StatusOr<std::unique_ptr<obs::TelemetryServer>> server =
        obs::TelemetryServer::Start(std::move(topts));
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    telemetry = std::move(server).value();
    std::printf("TELEMETRY %d\n", telemetry->port());
  }
  std::printf("LISTENING %d\n", listener.value().port());
  std::fflush(stdout);
  // Structured stderr from here on: every line carries a monotonic-ms
  // timestamp and the worker pid, so interleaved farm logs stay
  // attributable (obs/worker_log.h).
  obs::WorkerLogf("serving on port %d%s", listener.value().port(),
                  opts.chaos_kill_after >= 0 ? " (chaos kill armed)" : "");

  std::atomic<int64_t> chaos_remaining{opts.chaos_kill_after};
  RpcServeOptions serve;
  serve.stop = &g_stop;
  serve.sessions = opts.sessions;
  if (opts.chaos_kill_after >= 0) {
    serve.chaos_tasks_remaining = &chaos_remaining;
  }
  s = ServeRpcWorker(&listener.value(), serve);
  if (s.ok()) {
    // Graceful SIGTERM/SIGINT drain completed.
    obs::WorkerLogf("drained, shutting down cleanly");
    return 0;
  }
  obs::WorkerLogErrorf("error: %s", s.ToString().c_str());
  std::fprintf(stderr, "%s",
               obs::FlightRecorder::Global().DumpText().c_str());
  return 1;
}

}  // namespace
}  // namespace mpqopt

int main(int argc, char** argv) { return mpqopt::Main(argc, argv); }
