#!/usr/bin/env python3
"""Build and run the minconn end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-chordal62 --seed 7 \
        --seconds 25 --trace 0

Builds perfbench/perfbench.exe from source with dune into .bench_build,
then runs it; scratch data (plan caches, the traced run's span dump)
goes under .bench_work. The last line of stdout is the JSON result; the
exit code is nonzero when the build fails, a check fails or the run
times out. Workloads: cold-chordal62, warm-forest, evolve-alpha.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def commit(root):
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            log("%s not found: run from the root of a full checkout" % need)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--display", "quiet",
             "./perfbench/perfbench.exe"]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 2
    if built.returncode != 0:
        log("build failed")
        return 2

    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", os.path.join(root, WORK_DIR, args.workload),
           "--commit", commit(root)]
    # Its own process group, so a timeout can take the server processes
    # it spawned down with it.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
