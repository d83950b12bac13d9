#!/usr/bin/env python3
"""Fleet benchmark for hipads: one seeded workload against a real
`hipads_cli serve` + `route` TCP fleet.

Run from the root of a hipads checkout:

    python3 fleetbench/run.py --workload point-zipf --seed 1 --seconds 10 \
        --trace 0

Workloads: point-zipf, sweep-sharded, mixed-open (see BENCHMARK.json).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

The script builds hipads and the fleetbench load generator from this
checkout into .bench_build/ (incrementally after the first run), runs the
generator with a scratch directory under .bench_work/, relays its output,
and removes the scratch directory. The last stdout line is the result
JSON. Every process it starts is killed and reaped on every exit path.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("point-zipf", "sweep-sharded", "mixed-open")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170

_child = None


def _reap_all():
    """Kills the generator's process group and reaps every descendant
    (this process is their subreaper, so orphans land here)."""
    if _child is not None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)


def _on_signal(signum, _frame):
    if signum == signal.SIGALRM:
        sys.stderr.write("fleetbench: run timed out\n")
    _reap_all()
    sys.exit(128 + signum)


def _become_subreaper():
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def build():
    """Configures (once) and builds fleetbench and hipads_cli."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("fleetbench: no hipads sources next to %s\n"
                         % BENCH_DIR)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fleetbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            rc = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("fleetbench: build failed: %s\n"
                                 % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _become_subreaper()
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP,
                signal.SIGALRM):
        signal.signal(sig, _on_signal)
    if not build():
        return 1
    # The run itself (not the first, slow build) is bounded: a hung
    # generator is killed with everything it started.
    signal.alarm(RUN_TIMEOUT_S)

    global _child
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(BUILD_DIR, "fleetbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    last = ""
    try:
        _child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                  start_new_session=True)
        for line in _child.stdout:
            line = line.rstrip("\n")
            if line:
                last = line
                print(line, flush=True)
        rc = _child.wait()
    finally:
        signal.alarm(0)
        _reap_all()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if rc != 0 or not last.startswith("{"):
        sys.stderr.write("fleetbench: run failed (exit %d)\n" % rc)
        return rc or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
