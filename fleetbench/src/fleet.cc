#include "fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace fleetbench {
namespace {

// Live child pids, written by the main thread and read by the signal
// handler; slots hold 0 when free.
constexpr int kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void OnSignal(int) {
  KillAllChildren();  // kill() and waitpid() only: async-signal-safe
  _exit(130);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void InstallCleanupHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);
  // A child that dies mid-write must not take the benchmark with it.
  signal(SIGPIPE, SIG_IGN);
}

void KillAllChildren() {
  for (auto& slot : g_children) {
    pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    pid_t pid = slot.exchange(0);
    if (pid > 0) waitpid(pid, nullptr, 0);
  }
}

StatusOr<Child> SpawnChild(const std::vector<std::string>& argv,
                           const std::string& log_path, bool pipe_stdout) {
  // Everything the child needs is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed (the parent may run
  // threads).
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
  if (log_fd < 0) return Status::IOError("cannot open " + log_path);
  int out[2] = {-1, -1};
  if (pipe_stdout && pipe2(out, O_CLOEXEC) != 0) {
    close(log_fd);
    return Status::IOError("pipe failed");
  }
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    if (pipe_stdout) {
      close(out[0]);
      close(out[1]);
    }
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // parent already gone
    dup2(pipe_stdout ? out[1] : log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  Register(pid);
  close(log_fd);
  Child child;
  child.pid = pid;
  if (pipe_stdout) {
    close(out[1]);
    child.out_fd = out[0];
  }
  return child;
}

Status RunStep(const std::vector<std::string>& argv,
               const std::string& log_path, double timeout_s) {
  auto spawned = SpawnChild(argv, log_path, /*pipe_stdout=*/false);
  if (!spawned.ok()) return spawned.status();
  Child child = spawned.value();
  auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    int status = 0;
    pid_t done = waitpid(child.pid, &status, WNOHANG);
    if (done == child.pid) {
      Unregister(child.pid);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::Ok();
      return Status::IOError("`" + argv[0] + " " + argv[1] +
                             "` failed; see " + log_path);
    }
    if (SecondsSince(t0) > timeout_s) {
      StopChild(&child);
      return Status::DeadlineExceeded("`" + argv[1] + "` timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

StatusOr<uint16_t> ReadListeningPort(const Child& child, double timeout_s) {
  auto t0 = std::chrono::steady_clock::now();
  std::string text;
  for (;;) {
    size_t at = text.find("on port ");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      unsigned long port = std::strtoul(text.c_str() + at + 8, nullptr, 10);
      if (port == 0 || port > 65535) {
        return Status::Corruption("bad port in: " + text);
      }
      return static_cast<uint16_t>(port);
    }
    double left = timeout_s - SecondsSince(t0);
    if (left <= 0) return Status::DeadlineExceeded("no port printed: " + text);
    pollfd fd{child.out_fd, POLLIN, 0};
    int rc = poll(&fd, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[512];
    ssize_t got = read(child.out_fd, buf, sizeof(buf));
    if (got <= 0) return Status::IOError("process exited before listening");
    text.append(buf, static_cast<size_t>(got));
  }
}

void StopChild(Child* child) {
  if (child->pid > 0) {
    kill(child->pid, SIGKILL);
    waitpid(child->pid, nullptr, 0);
    Unregister(child->pid);
  }
  if (child->out_fd >= 0) close(child->out_fd);
  *child = Child{};
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double CpuMs(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/stat")
                            : "/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void CliFleet::Stop() {
  StopChild(&router);
  for (Child& s : servers) StopChild(&s);
  servers.clear();
}

std::vector<pid_t> CliFleet::Pids() const {
  std::vector<pid_t> pids;
  for (const Child& s : servers) pids.push_back(s.pid);
  pids.push_back(router.pid);
  return pids;
}

}  // namespace fleetbench
