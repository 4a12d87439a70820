#!/usr/bin/env python3
"""Self-test of the DFLOW benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
checks that:
  - every declared end-to-end (untraced) and per-layer (traced) metric is
    emitted with its declared unit, and the run checked its results;
  - failed_frac is failed / attempted, and shed queries count as failed
    (an overloaded serve_steady run must shed and report it);
  - the same seed reproduces the virtual-clock digest and virtual metrics;
  - another seed changes both the generated inputs and the digest.
It also checks that run.py fails, without a result, in a directory holding
only BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
VIRTUAL = ("sim_ms_p50", "sim_ms_tail", "net_mb_per_query")


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace=0, load=1.0, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "0.5", "--trace", str(trace),
                              "--tiny", "--load", str(load)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          check=False)
    return proc


def parse(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("perfbench "):
            _, key, value = line.split(" ", 2)
            out[key] = json.loads(value) if value.startswith("{") else value
    res = out["result"]
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(res)))
    if res["correct"] is not True or res["attempted"] < 1:
        fail("%s: correct=%s attempted=%s" % (what, res["correct"],
                                              res["attempted"]))
    return out


def check_metrics(got, declared, what):
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        fail("%s: metrics %s, declared %s" % (
            what, sorted(set(got) ^ set(names)), "(symmetric difference)"))
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s unit %s, declared %s" % (
                what, m["name"], got[m["name"]]["unit"], m["unit"]))


def check_failed_frac(out, what):
    res = out["result"]
    frac = out["end_to_end"]["failed_frac"]["value"]
    if abs(frac - res["failed"] / res["attempted"]) > 1e-9:
        fail("%s: failed_frac %s != %d/%d" % (what, frac, res["failed"],
                                             res["attempted"]))


def main():
    for w in BENCH["workloads"]:
        name = w["name"]
        a = parse(run(name, 1), name + " seed 1")
        check_metrics(a["result"]["metrics"], BENCH["end_to_end"],
                      name + " untraced")
        check_failed_frac(a, name)
        b = parse(run(name, 1), name + " seed 1 again")
        if a["digest"] != b["digest"] or a["inputs"] != b["inputs"]:
            fail("%s: seed 1 digest/inputs not reproduced" % name)
        for v in VIRTUAL:
            if a["end_to_end"][v] != b["end_to_end"][v]:
                fail("%s: virtual metric %s not reproduced" % (name, v))
        c = parse(run(name, 2), name + " seed 2")
        if c["inputs"] == a["inputs"] or c["digest"] == a["digest"]:
            fail("%s: seed 2 did not change inputs and digest" % name)
        t = parse(run(name, 1, trace=1), name + " traced")
        check_metrics(t["result"]["metrics"], BENCH["per_layer"],
                      name + " traced")
        if t["digest"] != a["digest"]:
            fail("%s: traced run changed the virtual digest" % name)
        print("selftest: %s ok" % name)

    # Overload: arrivals beyond the admission queues are shed, and every
    # shed query is a failed one.
    o = parse(run("serve_steady", 1, load=200.0), "serve_steady overloaded")
    check_failed_frac(o, "serve_steady overloaded")
    shed = o["end_to_end"]["shed"]["value"]
    if shed <= 0 or o["result"]["failed"] < shed:
        fail("overload: shed %s, failed %s" % (shed, o["result"]["failed"]))
    print("selftest: shedding counted as failed ok")

    # Without the library sources the benchmark must fail, with no result.
    bare = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build"), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("bare directory: exit %d, stdout %r" % (proc.returncode,
                                                    proc.stdout[-200:]))
    print("selftest: bare directory fails ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
