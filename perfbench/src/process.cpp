#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace perfbench {

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& stderr_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));

  // Everything the child needs is prepared before fork(): between fork and
  // exec the child of a multi-threaded parent may only make
  // async-signal-safe calls.
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0) {
    const int error = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(error));
  }
  if (pid_ == 0) {
    // The server must not outlive a benchmark that is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    const int err = ::open(stderr_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int null_in = ::open("/dev/null", O_RDONLY);
    if (err < 0 || null_in < 0 || ::dup2(fds[1], STDOUT_FILENO) < 0 ||
        ::dup2(err, STDERR_FILENO) < 0 || ::dup2(null_in, STDIN_FILENO) < 0)
      ::_exit(127);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  stdout_fd_ = fds[0];
}

ChildProcess::~ChildProcess() { stop(); }

std::string ChildProcess::read_line(double timeout_s) {
  const Clock::time_point begin = Clock::now();
  for (;;) {
    const std::size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return line;
    }
    const double left = timeout_s - seconds_since(begin);
    if (left <= 0.0 || stdout_fd_ < 0)
      throw std::runtime_error("child wrote no line in time");
    pollfd poller{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&poller, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buffer[512];
    const ssize_t got = ::read(stdout_fd_, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) throw std::runtime_error("child closed its stdout");
    pending_.append(buffer, static_cast<std::size_t>(got));
  }
}

bool ChildProcess::await_handler(int signal, double timeout_s) {
  const Clock::time_point begin = Clock::now();
  for (bool first = true;; first = false) {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    bool running = pid_ > 0 && status.good();
    bool caught = false;
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("State:", 0) == 0 && line.find('Z') != std::string::npos)
        running = false;
      if (line.rfind("SigCgt:", 0) == 0)
        caught = (std::stoull(line.substr(7), nullptr, 16) >> (signal - 1)) & 1;
    }
    if (caught || !running) return !first;
    if (seconds_since(begin) > timeout_s) return true;
    ::usleep(1000);
  }
}

int ChildProcess::stop(double grace_s) {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point begin = Clock::now();
    int status = 0;
    for (;;) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (done < 0 && errno != EINTR) break;
      if (seconds_since(begin) > grace_s) {
        ::kill(pid_, SIGKILL);
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        break;
      }
      ::usleep(2000);
    }
    exit_code_ = WIFEXITED(status)     ? WEXITSTATUS(status)
                 : WIFSIGNALED(status) ? -WTERMSIG(status)
                                       : -1;
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return exit_code_;
}

}  // namespace perfbench
