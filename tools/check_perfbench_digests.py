#!/usr/bin/env python3
"""Virtual-time gate over the DFLOW benchmark's digests.

Runs `python3 perfbench/run.py --tiny --seconds 1` for every (workload,
seed) pair in the expectations file and compares the `perfbench inputs`
and `perfbench digest` lines it prints with the committed ones. The inputs
line hashes the generated tables and queries; the digest hashes the first
round's execution reports (simulated ns, bytes per link, device busy time)
and result fingerprints. A host-speed change must leave both unchanged, so
any difference fails the gate.

Usage (from the root of a checkout):
  check_perfbench_digests.py \
      --expected bench/expectations/perfbench_digests.json
  check_perfbench_digests.py --expected ... --write
      re-records the file from this checkout's runs (same pairs).

Exit codes: 0 all equal, 1 a difference or a failed run, 2 usage error.
"""

import argparse
import json
import subprocess
import sys

SCHEMA = "dflow.perfbench_digests.v1"


def run(workload, seed):
    """Returns {"inputs": ..., "digest": ...} of one tiny run, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0] == "perfbench" and \
                parts[1] in ("inputs", "digest"):
            out[parts[1]] = parts[2]
    return out if len(out) == 2 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expected", required=True)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    try:
        with open(args.expected) as f:
            expected = json.load(f)
    except (OSError, ValueError) as e:
        print("check_perfbench_digests: cannot read %s: %s" %
              (args.expected, e))
        return 2
    if expected.get("schema") != SCHEMA:
        print("check_perfbench_digests: schema is not %s" % SCHEMA)
        return 2

    failures = 0
    observed = {}
    for workload, seeds in sorted(expected["digests"].items()):
        for seed, want in sorted(seeds.items()):
            got = run(workload, int(seed))
            label = "%s seed %s" % (workload, seed)
            if got is None:
                print("FAIL %s: run failed or printed no inputs/digest" % label)
                failures += 1
                continue
            observed.setdefault(workload, {})[seed] = got
            if args.write:
                print("recorded %s: %s" % (label, got))
            elif got != want:
                print("FAIL %s: expected %s, got %s" % (label, want, got))
                failures += 1
            else:
                print("ok   %s: %s" % (label, got))

    if args.write:
        if failures:
            return 1
        expected["digests"] = observed
        with open(args.expected, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
