/// \file process.hpp
/// A long-running child process (the campaign_server the server workload
/// talks to): spawned with its stdout on a pipe so the caller can wait for
/// its startup line, stopped with SIGTERM and always reaped.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class ChildProcess {
 public:
  /// Spawns `argv` (argv[0] is a path) with stdout on a pipe and stderr
  /// appended to `stderr_path`. Throws std::runtime_error on failure.
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& stderr_path);
  /// Stops the child if it still runs (see stop()).
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess(ChildProcess&&) = delete;
  ChildProcess& operator=(ChildProcess&&) = delete;

  /// Next line of the child's stdout, without the newline. Throws
  /// std::runtime_error when the child closes stdout or `timeout_s` passes.
  [[nodiscard]] std::string read_line(double timeout_s);

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Waits up to `timeout_s` until the child catches `signal` (SigCgt in
  /// /proc/<pid>/status) or is no longer running. True when the first
  /// look found it running without a handler, that is, when it waited.
  bool await_handler(int signal, double timeout_s);

  /// SIGTERM, then wait up to `grace_s` for the exit (SIGKILL after that);
  /// returns the exit code, or minus the signal that killed the child.
  /// Idempotent.
  int stop(double grace_s = 20.0);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;  ///< stdout bytes read past the last line
  int exit_code_ = -1;
};

}  // namespace perfbench
