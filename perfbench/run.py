#!/usr/bin/env python3
"""Build and run one benchmark workload (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_files|ext_calls|policy_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe and the
libraries it links, in release mode, under .bench_build/; pins the run
to one CPU; and passes the arguments through.  The last line of
standard output is the result object.  The traced run (--trace 1)
writes its spans to .bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("serve_files", "ext_calls", "policy_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def git_rev():
    """The commit checked out, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the repository root (dune-project and lib/ not found)")

    # The shared dune cache lives outside the checkout: build without it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")

    # One CPU for every domain of the run.  The closed loop keeps one
    # request in flight, so the client and the server worker never run
    # at once; on one CPU a handoff is a same-core switch instead of a
    # cross-core wake-up, whose cost varies about twofold from run to
    # run on a small VM.  The in-process workloads stop migrating.
    cpus = sorted(os.sched_getaffinity(0))
    cmd = [
        os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--nproc", str(len(cpus)), "--rev", git_rev(),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpus[-1]}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
