#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that:
  * every workload, at a tiny size, prints every end-to-end metric
    (--trace 0) and every per-layer metric (--trace 1) with its unit and
    sample count, a result line with exactly the keys correct,
    attempted, failed and metrics, and passes its correctness gate (the
    metric names and units must be exactly BENCHMARK.json's);
  * the benchmark fails closed, exiting non-zero without a result, in a
    directory that holds only BENCHMARK.json and the benchmark's files.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# Headline figures the binary prints by name on every --trace 0 run,
# as a value or as n/a for workloads that do not produce them.
MODELLED = ["riommu.p99_us", "strict.p99_us", "riommu.blackout_us",
            "strict.blackout_us", "model_err_pct"]
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(bench, workload, trace):
    p = run(["--workload", workload, "--seed", "7", "--seconds", "0.1",
             "--trace", str(trace), "--size", "tiny"])
    where = f"{workload} --trace {trace}"
    if p.returncode != 0:
        fail(f"{where} exited {p.returncode}:\n{p.stdout[-3000:]}{p.stderr[-3000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{where}: gate did not pass: {lines[-1][:300]}")
    defs = bench["per_layer" if trace else "end_to_end"]
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{where}: metric names/units differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(3), int(m.group(4)))
    for name, unit in want.items():
        if printed.get(name, (None,))[0] != unit:
            fail(f"{where}: no 'metric {name} = <v> {unit} (n=..)' line")
        if not trace and (printed[name][1] < 1 or
                          result["metrics"][name]["value"] <= 0):
            fail(f"{where}: end-to-end metric {name} is empty or zero")
    for key in ("ops_attempted = ", "ops_failed = 0"):
        if not any(line.startswith(key) for line in lines):
            fail(f"{where}: missing '{key}' line")
    if not trace:
        for name in MODELLED:
            if not any(line.startswith(f"modelled {name} ") for line in lines):
                fail(f"{where}: headline {name} not printed")
    print(f"selftest: ok {where}: {len(want)} metrics, "
          f"attempted {result['attempted']}")


def check_fails_closed(bdir):
    bare = os.path.join(bdir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "stream7", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail("benchmark did not fail closed without the simulator sources")
    print("selftest: ok fails closed without sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    for name in names:
        check_run(bench, name, 0)  # the first call also builds the binary
        check_run(bench, name, 1)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    check_fails_closed(bdir)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
