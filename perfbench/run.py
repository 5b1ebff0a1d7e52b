#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the simulator from
src/) under .bench_build/perfbench, runs the arithmetic self-test, then
runs the benchmark binary with the same arguments plus provenance. Build
output goes to stderr; the binary's stdout is passed through, so the
last stdout line is the result JSON. Everything it writes stays under
.bench_build/ in the repository root.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("oneshot_compute", "oneshot_membound", "serve_poisson",
             "pipeline_2dev")
# Generous: the first run of a checkout builds the simulator.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the simulator and benchmark sources, path-sorted."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def run_step(cmd, env, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
        return False
    return proc.returncode == 0


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        env, BUILD_TIMEOUT_S):
            return False
    if not run_step(["cmake", "--build", BUILD, "-j", jobs, "--target",
                     "perfbench", "perfbench_selftest"],
                    env, BUILD_TIMEOUT_S):
        return False
    return run_step([os.path.join(BUILD, "perfbench_selftest")], env, 60)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compilers (build and jit) write temp files here
    if not build(env):
        return 2

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "out"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
