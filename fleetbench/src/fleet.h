// Child processes of the fleet benchmark: the hipads_cli steps that build
// the fixture (generate, sketch, shard) and the long-running `serve` and
// `route` processes that form the TCP fleet.
//
// Every child is registered in a fixed-size, signal-safe table so that a
// SIGINT/SIGTERM, a failure or a normal exit all kill and reap every child
// (InstallCleanupHandlers, KillAllChildren). Children also die with the
// benchmark process itself (PR_SET_PDEATHSIG), so a crash leaves no
// orphaned server behind.

#ifndef FLEETBENCH_FLEET_H_
#define FLEETBENCH_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/router.h"
#include "util/status.h"

namespace fleetbench {

using hipads::Status;
using hipads::StatusOr;

/// One child process: pid plus the read end of its stdout pipe (-1 for
/// children whose stdout goes to their log file).
struct Child {
  pid_t pid = -1;
  int out_fd = -1;
};

/// Installs SIGINT/SIGTERM/SIGHUP handlers that kill and reap every
/// registered child, then exit with status 130.
void InstallCleanupHandlers();

/// Kills (SIGKILL) and reaps every registered child.
void KillAllChildren();

/// Starts `argv` (argv[0] is an executable path) with stderr appended to
/// `log_path`. With `pipe_stdout`, stdout is readable through out_fd;
/// otherwise it goes to the log too.
StatusOr<Child> SpawnChild(const std::vector<std::string>& argv,
                           const std::string& log_path, bool pipe_stdout);

/// Runs `argv` to completion; fails on a nonzero exit or after
/// `timeout_s` (the child is then killed).
Status RunStep(const std::vector<std::string>& argv,
               const std::string& log_path, double timeout_s);

/// Reads the child's stdout until a line containing "on port N" (what
/// `serve` and `route` print once listening) and returns N.
StatusOr<uint16_t> ReadListeningPort(const Child& child, double timeout_s);

/// SIGKILLs the child and waits for it; a no-op for an empty Child.
void StopChild(Child* child);

/// Peak resident set (VmHWM) of a live process, in MiB; 0 if unreadable.
double PeakRssMb(pid_t pid);

/// User + system CPU time a process has consumed so far, in ms (pid 0 =
/// this process).
double CpuMs(pid_t pid);

/// The benchmark's fleet of hipads_cli processes: range servers plus one
/// router in front of them, all on ephemeral loopback ports.
struct CliFleet {
  std::vector<Child> servers;
  Child router;
  hipads::FleetManifest manifest;  // the servers' ranges and addresses
  std::string router_address;

  CliFleet() = default;
  CliFleet(const CliFleet&) = delete;
  CliFleet& operator=(const CliFleet&) = delete;
  ~CliFleet() { Stop(); }

  void Stop();
  /// Every fleet process (servers first, router last).
  std::vector<pid_t> Pids() const;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_FLEET_H_
