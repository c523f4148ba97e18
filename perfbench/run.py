#!/usr/bin/env python3
"""Builds and runs the skern service benchmark.

    python3 perfbench/run.py --workload kv_rpc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the repository root; the
last line of stdout is the result JSON printed by the benchmark binary (with
--workload all, each workload's report follows the previous one). Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_rpc", "ingest_aio", "fileserver_cold")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("skern sources (src/) not found next to perfbench/")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "skern_perfbench", "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only benchmark output.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "skern_perfbench")


def git_sha():
    """HEAD's sha when the checkout is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    exe = build()
    sys.stdout.flush()
    if args.selftest:
        return subprocess.run([exe, "--selftest"]).returncode
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
        if args.trace:
            cmd += ["--spans-out", os.path.join(
                os.path.dirname(exe), "spans-%s-%d.jsonl" % (workload, args.seed))]
        code = subprocess.run(cmd).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
