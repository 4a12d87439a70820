#!/usr/bin/env python3
"""Builds the DFLOW benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. A traced run also writes its spans to
<build dir>/spans/<workload>-seed<n>.json. Exits non-zero, without a
result, if the build or any correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-test's size)")
    parser.add_argument("--load", type=float, default=1.0,
                        help="offered-load multiplier of the serving workloads")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--load", str(args.load)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
