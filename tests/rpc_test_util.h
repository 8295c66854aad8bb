// Copyright 2026 mpqopt authors.
//
// Self-hosting RPC test fixture support: spawns real mpqopt_worker server
// subprocesses on loopback ephemeral ports, so the wire-contract suite
// runs against genuinely remote workers. The worker binary path comes
// from $MPQOPT_WORKER_BIN (set by CMake on the RPC-using tests) and falls
// back to "./mpqopt_worker" — ctest runs tests from the build directory,
// where the binary lives.
//
// Failure-injection axes for the supervision tests:
//  * Kill(i)       — SIGKILL, the classic vanished node.
//  * Terminate(i)  — SIGTERM, expecting the worker's graceful drain path
//                    (reaps and returns the exit status).
//  * Restart(i)    — respawn a killed worker on its ORIGINAL port, so a
//                    supervisor redial to the old endpoint succeeds.
//  * StartChaos(n) — a worker armed with --chaos-kill-after=n: it serves
//                    n request frames (a round's whole share for this
//                    worker is one frame), then crashes without replying
//                    — a deterministic mid-round node death.
//
// When $MPQOPT_WORKER_LOG_DIR names a directory, every spawned worker's
// stderr is redirected to <dir>/worker-<pid>.log; CI points this at a
// directory it uploads as a failure artifact, so a red failover test
// ships the worker-side story with it.
//
// A test whose failure mode is a hang runs its body with std::async and
// waits through AbortUnlessDone, which kills the farm's workers before it
// aborts: abort skips the farm's destructor, and workers left serving
// would outlive the test and hold its stderr open.

#ifndef MPQOPT_TESTS_RPC_TEST_UTIL_H_
#define MPQOPT_TESTS_RPC_TEST_UTIL_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "common/macros.h"

namespace mpqopt {

inline const char* WorkerBinaryPath() {
  const char* from_env = std::getenv("MPQOPT_WORKER_BIN");
  return from_env != nullptr ? from_env : "./mpqopt_worker";
}

/// A pool of mpqopt_worker subprocesses listening on 127.0.0.1.
class RpcWorkerFarm {
 public:
  RpcWorkerFarm() = default;
  ~RpcWorkerFarm() { StopAll(); }
  MPQOPT_DISALLOW_COPY_AND_ASSIGN(RpcWorkerFarm);

  /// Spawns `n` workers and waits for each to report its listening
  /// port. `extra_args` (e.g. "--session-ttl-ms=100") are passed to
  /// every spawned worker; Restart() does NOT preserve them.
  void Start(int n, const std::vector<std::string>& extra_args = {}) {
    for (int i = 0; i < n; ++i) SpawnOne(/*port=*/0, extra_args);
  }

  /// Spawns one worker that serves `tasks_before_crash` request frames and
  /// then crashes without replying (pings are exempt from the budget).
  void StartChaos(int64_t tasks_before_crash) {
    SpawnOne(/*port=*/0,
             {"--chaos-kill-after=" + std::to_string(tasks_before_crash)});
  }

  /// "host:port,host:port" for --workers-addr / BackendOptions.
  std::string workers_addr() const {
    std::string joined;
    for (const Worker& worker : workers_) {
      if (!joined.empty()) joined += ",";
      joined += worker.endpoint;
    }
    return joined;
  }

  std::vector<std::string> endpoints() const {
    std::vector<std::string> result;
    for (const Worker& worker : workers_) result.push_back(worker.endpoint);
    return result;
  }

  size_t size() const { return workers_.size(); }

  /// SIGKILLs worker `i` and reaps it — the "node crash" of the
  /// fault-handling tests.
  void Kill(size_t i) {
    MPQOPT_CHECK_LT(i, workers_.size());
    Worker& worker = workers_[i];
    if (worker.pid <= 0) return;
    ::kill(worker.pid, SIGKILL);
    ::waitpid(worker.pid, nullptr, 0);
    worker.pid = -1;
  }

  /// SIGTERMs worker `i` (the graceful-drain path), reaps it, and
  /// returns its exit status: the exit code when it exited, or
  /// 128 + signal when a signal killed it.
  int Terminate(size_t i) {
    MPQOPT_CHECK_LT(i, workers_.size());
    Worker& worker = workers_[i];
    MPQOPT_CHECK_GT(worker.pid, 0);
    ::kill(worker.pid, SIGTERM);
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    worker.pid = -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  /// Reaps worker `i` after it exited on its own (chaos kill), returning
  /// the same status encoding as Terminate.
  int WaitExit(size_t i) {
    MPQOPT_CHECK_LT(i, workers_.size());
    Worker& worker = workers_[i];
    MPQOPT_CHECK_GT(worker.pid, 0);
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    worker.pid = -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  /// Respawns a previously killed/terminated worker `i` on the SAME port
  /// it listened on before, so an existing backend's redial of the old
  /// endpoint reaches the new process.
  void Restart(size_t i) {
    MPQOPT_CHECK_LT(i, workers_.size());
    Worker& worker = workers_[i];
    MPQOPT_CHECK(worker.pid <= 0 && "Kill/Terminate the worker first");
    const size_t colon = worker.endpoint.rfind(':');
    const int port = std::atoi(worker.endpoint.c_str() + colon + 1);
    workers_[i] = SpawnWorker(port, {});
  }

  void StopAll() {
    for (size_t i = 0; i < workers_.size(); ++i) Kill(i);
    workers_.clear();
  }

 private:
  struct Worker {
    pid_t pid = -1;
    std::string endpoint;
  };

  void SpawnOne(int port, const std::vector<std::string>& extra_args) {
    workers_.push_back(SpawnWorker(port, extra_args));
  }

  static Worker SpawnWorker(int port,
                            const std::vector<std::string>& extra_args) {
    int out_pipe[2];
    MPQOPT_CHECK_EQ(::pipe(out_pipe), 0);
    const char* log_dir = std::getenv("MPQOPT_WORKER_LOG_DIR");
    const pid_t pid = ::fork();
    MPQOPT_CHECK_GE(pid, 0);
    if (pid == 0) {
      // Child: route stdout into the pipe (stderr optionally into a log
      // file CI can upload) and become the worker server.
      ::close(out_pipe[0]);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[1]);
      if (log_dir != nullptr && log_dir[0] != '\0') {
        char log_path[512];
        std::snprintf(log_path, sizeof(log_path), "%s/worker-%d.log",
                      log_dir, static_cast<int>(::getpid()));
        const int log_fd =
            ::open(log_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (log_fd >= 0) {
          ::dup2(log_fd, STDERR_FILENO);
          ::close(log_fd);
        }
      }
      const std::string listen =
          "--listen=127.0.0.1:" + std::to_string(port);
      std::vector<const char*> argv;
      argv.push_back(WorkerBinaryPath());
      argv.push_back(listen.c_str());
      for (const std::string& arg : extra_args) argv.push_back(arg.c_str());
      argv.push_back(nullptr);
      ::execv(WorkerBinaryPath(), const_cast<char* const*>(argv.data()));
      std::fprintf(stderr, "exec %s failed: %s\n", WorkerBinaryPath(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    // Wait for "LISTENING <port>".
    FILE* out = ::fdopen(out_pipe[0], "r");
    MPQOPT_CHECK(out != nullptr);
    int bound_port = 0;
    const int matched = std::fscanf(out, "LISTENING %d", &bound_port);
    std::fclose(out);  // the worker keeps running; only our pipe end closes
    if (matched != 1 || bound_port <= 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      MPQOPT_CHECK(false && "mpqopt_worker did not report a listening port");
    }
    Worker worker;
    worker.pid = pid;
    worker.endpoint = "127.0.0.1:" + std::to_string(bound_port);
    return worker;
  }

  std::vector<Worker> workers_;
};

/// Hang guard: waits up to `limit` for `run`. If it is not done, prints
/// `what`, SIGKILLs and reaps every worker of `farm`, and aborts (a
/// deadlocked thread cannot be joined).
inline void AbortUnlessDone(const std::future<void>& run,
                            std::chrono::seconds limit, RpcWorkerFarm* farm,
                            const char* what) {
  if (run.wait_for(limit) == std::future_status::ready) return;
  std::fprintf(stderr, "%s\n", what);
  farm->StopAll();
  std::abort();
}

}  // namespace mpqopt

#endif  // MPQOPT_TESTS_RPC_TEST_UTIL_H_
