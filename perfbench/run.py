#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/korch_bench.exe and the
korch_serve daemon with dune (into _build/), then runs the workload and
passes its output through: human-readable rows, then one JSON result line.
Scratch files (kernel caches, plan caches, sockets, Chrome traces) live in
.perfbench_run/ under the current directory. Exits non-zero without a
result line when the build fails.
"""

import os
import signal
import subprocess
import sys

BENCH_EXE = os.path.join("_build", "default", "perfbench", "korch_bench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "korch_serve.exe")
WORK_DIR = ".perfbench_run"
TARGETS = ["./perfbench/korch_bench.exe", "./bin/korch_serve.exe"]
# A run must end within 180 s once built.
WORKLOAD_TIMEOUT_S = 170


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def build() -> bool:
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root", file=sys.stderr)
        return False
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=900,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main() -> int:
    if not build():
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ)
    # Keep every scratch file inside the checkout.
    tmp = os.path.abspath(os.path.join(WORK_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    cmd = [BENCH_EXE, *sys.argv[1:], "--work-dir", WORK_DIR, "--serve-exe", SERVE_EXE]
    signal.signal(signal.SIGTERM, _interrupt)
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        # SIGTERM lets the workload stop the daemon it started.
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("perfbench: workload stopped", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
