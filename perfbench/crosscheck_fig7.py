#!/usr/bin/env python3
"""Cross-check stream7 against the Figure 7 bench.

    build/bench/bench_fig7_cycles_per_packet --json fig7.json
    python3 perfbench/crosscheck_fig7.py fig7.json

Run from the root of a checkout. Runs the stream7 workload once and
checks that its cycles/op for every protection mode equals the `total`
column of bench_fig7_cycles_per_packet's JSON (printed there with six
significant digits), which shows the benchmark drives the same code
path as the figure it reproduces. Exits non-zero on any mismatch.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINE = re.compile(r"^(?:metric|modelled) (\S+) = (\S+) cycles ")


def slug(mode):
    return mode.replace("+", "_plus").replace("-", "_minus")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        fig7 = {slug(r["mode"]): r["total"] for r in json.load(f)["rows"]}
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", "stream7", "--seed", "1",
                        "--seconds", "0", "--trace", "0"],
                       capture_output=True, text=True, timeout=900)
    if p.returncode:
        sys.exit(f"stream7 failed:\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    ours = {}
    for line in p.stdout.splitlines():
        m = LINE.match(line)
        if m:
            name = m.group(1)
            mode = (name.split(".")[0] if name.endswith(".cycles_per_op")
                    else name.split(".", 1)[1])
            ours[mode] = float(m.group(2))
    bad = 0
    for mode, total in sorted(fig7.items()):
        mine = float(f"{ours.get(mode, float('nan')):.6g}")
        ok = mine == total
        bad += not ok
        print(f"{mode:14s} fig7 {total:>10g}  stream7 {mine:>10g}  "
              f"{'ok' if ok else 'MISMATCH'}")
    if bad or len(fig7) != 7:
        sys.exit(f"cross-check failed: {bad} of {len(fig7)} modes differ")
    print("cross-check: stream7 cycles/op == bench_fig7 totals, all 7 modes")


if __name__ == "__main__":
    main()
