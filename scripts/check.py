#!/usr/bin/env python3
"""The simulator's checks, as one table: tier-1 rows and CI lanes.

  python3 scripts/check.py --row NAME     run one tier-1 row
  python3 scripts/check.py --lane NAME    configure, build, run one lane
  python3 scripts/check.py --regen NAME   rewrite a row's golden ("all":
                                          every row that owns one)

A row runs one bench of the build tree in $RIO_BUILD_DIR (default:
build/ under the repo root) with RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1
and makes one comparison of its --json output:

  golden=F     the output equals tests/golden/F exactly;
  threads=N    the output at --threads N equals the output at
               --threads 1.

`norm` blanks the `bench` and/or `threads` meta fields on both sides
before comparing, and nothing else may differ. Numbers are compared as
the text the bench printed, so a change in the last printed digit of
any row fails. A row with `usage` instead expects the bench to reject
its arguments: exit 2 with "usage: ... <flag>" on stderr. Every row is
one ctest (tests/CMakeLists.txt reads the names from ROWS below), so a
new golden is one new row here and nothing else.

The benches are deterministic replays: a failing golden is a real
change in modelled output. If the change is intended, regenerate with
--regen and say why in the commit.

A lane is the slower CI work: a sanitizer or Release build of its own
plus soaks with extra fuzz seeds (RIO_EXTRA_SEEDS, paired with the
campaign's --gtest_filter), full bench sweeps and trace validation.
"""

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
QUICK = {"RIO_BENCH_QUICK": "1", "RIO_JSON_STABLE": "1"}

FIG7 = "bench_fig7_cycles_per_packet"


@dataclass
class Row:
    bench: str | None           # None: the comparator's own self-test
    args: list
    golden: str | None = None
    norm: tuple = ()
    threads: int = 0
    usage: str | None = None
    trace: object = None        # validator for a --timeline export


def has_op_spans(trace):
    """A traced run must export op spans, or its zero-cost check would
    pass on an empty trace."""
    assert any(e.get("cat") == "op" for e in trace["traceEvents"]), \
        "no op spans"


ROWS = {
    # The paper's figures and tables, and the extensions built on them.
    "golden_fig7": Row(FIG7, [], golden="fig7_quick.json"),
    "golden_fig8": Row("bench_fig8_model_validation", [],
                       golden="fig8_quick.json"),
    "golden_fig12": Row("bench_fig12_performance", [],
                        golden="fig12_quick.json"),
    "golden_table1": Row("bench_table1_breakdown", [],
                         golden="table1_quick.json"),
    "golden_table2": Row("bench_table2_normalized", [],
                         golden="table2_quick.json"),
    "golden_table3": Row("bench_table3_rr_latency", [],
                         golden="table3_quick.json"),
    "golden_sec53": Row("bench_sec53_iotlb_miss", [],
                        golden="sec53_quick.json"),
    "golden_sec54": Row("bench_sec54_prefetchers", [],
                        golden="sec54_quick.json"),
    "golden_ablation_nvme": Row("bench_ablation_nvme", [],
                                golden="ablation_nvme_quick.json"),
    "golden_ablation_riommu": Row("bench_ablation_riommu", [],
                                  golden="ablation_riommu_quick.json"),
    "golden_ablation_sata": Row("bench_ablation_sata", [],
                                golden="ablation_sata_quick.json"),
    "golden_fault_storm": Row("bench_fault_storm", [],
                              golden="fault_storm_quick.json"),
    "golden_scaling": Row("bench_scaling_cores", ["--cores", "1,2"],
                          golden="scaling_cores_1_2.json"),
    "golden_cluster": Row("bench_cluster_rdma",
                          ["--connections", "64", "--quick"],
                          golden="cluster_rdma_64_quick.json"),
    "golden_tail": Row("bench_tail_latency", ["--quick", "--slo"],
                       golden="tail_latency_quick.json"),
    "golden_wire_storm": Row("bench_wire_storm", ["--quick"],
                             golden="wire_storm_quick.json"),
    "golden_migration": Row("bench_migration", ["--quick"],
                            golden="migration_quick.json"),
    "golden_virt_platforms": Row("bench_virt", [],
                                 golden="virt_quick.json"),
    # The default rate 2 is the strict+ invalidation time-out storm
    # (tens of seconds); the lifecycle lane soaks it.
    "golden_lifecycle_churn": Row("bench_lifecycle_churn",
                                  ["--rate", "0,0.5"],
                                  golden="lifecycle_churn_0_0.5.json"),
    # Switched-off layers are inert: each reproduces a base golden.
    "golden_lifecycle": Row("bench_lifecycle_churn", ["--rate", "0"],
                            golden="fig7_quick.json", norm=("bench",)),
    "golden_virt": Row("bench_virt", ["--platform", "bare"],
                       golden="fig7_quick.json", norm=("bench",)),
    # Full distributed tracing and exact SLO recording cost nothing.
    "golden_obs": Row("bench_cluster_rdma",
                      ["--connections", "64", "--quick", "--slo"],
                      golden="cluster_rdma_64_quick.json",
                      trace=has_op_spans),
    # Uncoupled sweeps really run on threads; the output must not see it.
    "golden_selfperf": Row(FIG7, [], threads=4),
    "golden_virt_t4": Row("bench_virt",
                          ["--platform", "bare", "--threads", "4"],
                          golden="fig7_quick.json",
                          norm=("bench", "threads")),
    # One malformed value per flag family: usage line and exit 2.
    "bench_threads_bad_args": Row(FIG7, ["--threads", "x"],
                                  usage="--threads"),
    "bench_json_bad_args": Row(FIG7, ["--json"], usage="--json"),
    "scaling_cores_bad_args": Row("bench_scaling_cores", ["--cores", "0"],
                                  usage="--cores"),
    "cluster_connections_bad_args": Row("bench_cluster_rdma",
                                        ["--connections", "1"],
                                        usage="--connections"),
    "wire_loss_bad_args": Row("bench_wire_storm", ["--loss", "0.5x"],
                              usage="--loss"),
    "lifecycle_seed_bad_args": Row("bench_lifecycle_churn",
                                   ["--seed", "-1"], usage="--seed"),
    # Below 2048 pages the bench's own platform claims fail.
    "migration_pages_bad_args": Row("bench_migration",
                                    ["--pages", "1024"], usage="--pages"),
    # A misspelt flag is refused, not skipped into the default sweep.
    "bench_unknown_flag_bad_args": Row(FIG7, ["--jsno", "out.json"],
                                       usage="--jsno"),
    "cluster_unknown_flag_bad_args": Row("bench_cluster_rdma",
                                         ["--conections", "4"],
                                         usage="--conections"),
    # The comparator fails on a one-digit change, passes on `norm`.
    "check_selftest": Row(None, [], golden="fig7_quick.json"),
}


# ---- comparison ----------------------------------------------------------

def load(path, norm=()):
    """Parse bench JSON keeping field order and the printed number
    text, with the `norm` meta fields blanked."""
    doc = json.loads(Path(path).read_text(), parse_int=str,
                     parse_float=str, object_pairs_hook=OrderedDict)
    assert set(norm) <= {"bench", "threads"}, norm
    for field in norm:
        doc[field] = ""
    return doc


def same(want_path, got_path, norm=()):
    """Compare two bench outputs; print a per-row diff if they differ."""
    want, got = load(want_path, norm), load(got_path, norm)
    if want == got:
        return True

    def lines(doc):
        head = OrderedDict((k, v) for k, v in doc.items() if k != "rows")
        return [json.dumps(head)] + [json.dumps(r) for r in doc["rows"]]
    sys.stderr.writelines(line + "\n" for line in difflib.unified_diff(
        lines(want), lines(got), str(want_path), str(got_path),
        lineterm=""))
    return False


def selftest(golden):
    """The comparator must reject a one-digit change in any number and
    accept a copy that differs only in the normalised meta fields."""
    text = golden.read_text()
    body = text.index('"rows"')
    # The first number with a fractional part: bump its last digit.
    m = re.compile(r": -?\d+\.(\d*)(\d)[,}]").search(text, body)
    assert m, "no fractional number in the golden"
    digit = str((int(m.group(2)) + 1) % 10)
    bumped = text[:m.start(2)] + digit + text[m.end(2):]
    renamed = re.sub(r'^\{"bench": "[^"]*", "threads": \d+',
                     '{"bench": "renamed", "threads": 4', text)
    assert renamed != text
    with tempfile.TemporaryDirectory() as tmp:
        bumped_p, renamed_p = Path(tmp, "bumped"), Path(tmp, "renamed")
        bumped_p.write_text(bumped)
        renamed_p.write_text(renamed)
        ok = (not same(golden, bumped_p, ("bench", "threads"))
              and same(golden, renamed_p, ("bench", "threads"))
              and not same(golden, renamed_p))
    print("comparator rejects a one-digit change, accepts renamed meta"
          if ok else "comparator self-test failed")
    return ok


# ---- rows ----------------------------------------------------------------

def build_dir():
    return Path(os.environ.get("RIO_BUILD_DIR", ROOT / "build"))


def run_bench(build, bench, args, tmp, env=None, timeline=None):
    """Run one bench quick with --json; return the output's path."""
    out = Path(tmp, f"{bench}.{len(os.listdir(tmp))}.json")
    cmd = [str(Path(build, "bench", bench)), *args, "--json", str(out)]
    if timeline:
        cmd += ["--timeline", str(timeline)]
    subprocess.run(cmd, env=dict(env or os.environ, **QUICK), cwd=tmp,
                   check=True, stdout=subprocess.DEVNULL)
    return out


def run_row(name, build=None, env=None):
    row = ROWS[name]
    build = build or build_dir()
    if row.bench is None:
        return selftest(GOLDEN / row.golden)
    with tempfile.TemporaryDirectory() as tmp:
        if row.usage:
            p = subprocess.run(
                [str(Path(build, "bench", row.bench)), *row.args],
                env=env, cwd=tmp, capture_output=True, text=True)
            ok = (p.returncode == 2 and
                  re.search(r"usage: .*" + re.escape(row.usage), p.stderr))
            print(f"{name}: exit {p.returncode}: {p.stderr.strip()}")
            return bool(ok)
        if row.threads:
            t1 = run_bench(build, row.bench, [*row.args, "--threads", "1"],
                           tmp, env)
            tn = run_bench(build, row.bench,
                           [*row.args, "--threads", str(row.threads)],
                           tmp, env)
            return same(t1, tn, ("threads",))
        trace = Path(tmp, "trace.json") if row.trace else None
        out = run_bench(build, row.bench, row.args, tmp, env, trace)
        if trace:
            row.trace(json.loads(trace.read_text()))
        return same(GOLDEN / row.golden, out, row.norm)


def owns_golden(row):
    """Rows whose golden is their own bench's plain output."""
    return row.bench and row.golden and not row.norm and not row.trace


def regen(name):
    names = [n for n, r in ROWS.items() if owns_golden(r)]
    if name != "all":
        if name not in names:
            sys.exit(f"check: {name} owns no golden; owners: {names}")
        names = [name]
    with tempfile.TemporaryDirectory() as tmp:
        for n in names:
            row = ROWS[n]
            out = run_bench(build_dir(), row.bench, row.args, tmp)
            shutil.copyfile(out, GOLDEN / row.golden)
            print(f"check: wrote tests/golden/{row.golden}")


# ---- lanes ---------------------------------------------------------------

def check_qi_trace(trace):
    """Fault storm: paired QI async spans and a flight-dump marker."""
    events = trace["traceEvents"]
    begins = {(e["pid"], e["id"]) for e in events
              if e["ph"] == "b" and "id" in e}
    ends = {(e["pid"], e["id"]) for e in events
            if e["ph"] == "e" and "id" in e}
    assert begins, "no QI async spans recorded"
    unmatched = begins - ends
    assert not unmatched, f"unpaired QI spans: {sorted(unmatched)[:5]}"
    dumps = [e for e in events if e.get("name") == "flight_dump"]
    assert dumps, "no flight-recorder dump marker in the timeline"
    print(f"timeline OK: {len(events)} events, {len(begins)} QI spans, "
          f"{len(dumps)} flight dumps")


def check_op_trace(trace):
    """Hostile wire: every trace id opens with one op post and closes
    with exactly one terminal CQE, every wire/ingress child belongs to
    a known op, a go-back-N retransmit episode is visible, and no
    trace ring overflowed."""
    ops = [e for e in trace["traceEvents"] if e.get("cat") == "op"]
    assert ops, "no distributed op spans in the cluster trace"
    posts, cqes, children = {}, {}, []
    for e in ops:
        tid = e["id2"]["global"]
        if e["name"] != "op":
            children.append(e)
        elif e["ph"] in ("b", "e"):
            count = posts if e["ph"] == "b" else cqes
            count[tid] = count.get(tid, 0) + 1
    assert posts, "no op post spans"
    dup = {t: n for t, n in posts.items() if n != 1}
    assert not dup, f"trace ids reused across posts: {dup}"
    bad = {t: n for t, n in cqes.items() if n != 1}
    assert not bad, f"ops without exactly one terminal CQE: {bad}"
    orphan_cqes = set(cqes) - set(posts)
    assert not orphan_cqes, f"CQEs with no post: {sorted(orphan_cqes)[:5]}"
    orphans = [e["name"] for e in children
               if e["id2"]["global"] not in posts]
    assert not orphans, f"orphan wire spans: {orphans[:5]}"
    rtx = [e for e in children if e["name"] == "retransmit"]
    assert rtx, "hostile wire produced no visible retransmit episode"
    meta = trace.get("rioMeta", {})
    assert meta.get("dropped", 1) == 0, \
        f"trace rings overflowed ({meta}); raise --timeline-cap"
    print(f"cluster trace OK: {len(posts)} ops, {len(cqes)} CQEs, "
          f"{len(children)} child spans, {len(rtx)} retransmits")


def sh(cmd, env=None, quiet=False):
    """Run a command; `quiet` drops its stdout (a bench's tables) but
    keeps stderr, which carries sanitizer reports."""
    print("+", " ".join(str(c) for c in cmd), flush=True)
    subprocess.run([str(c) for c in cmd], env=env, check=True,
                   stdout=subprocess.DEVNULL if quiet else None)


# Lane steps: each takes (build dir, env) and raises on failure.
def test(name):
    return lambda d, env: sh([d / "tests" / name], env)


def fuzz(gtest_filter, seeds=None):
    def step(d, env):
        env = {k: v for k, v in env.items() if k != "RIO_EXTRA_SEEDS"}
        if seeds:
            env["RIO_EXTRA_SEEDS"] = seeds
        sh([d / "tests" / "fuzz_test", f"--gtest_filter={gtest_filter}"],
           env)
    return step


def bench(name, *args):
    return lambda d, env: sh([d / "bench" / name, *args],
                             dict(env, RIO_BENCH_QUICK="1"), quiet=True)


def ctest(regex=None):
    return lambda d, env: sh(
        ["ctest", "--test-dir", d, "--output-on-failure",
         "-j", str(os.cpu_count())] + (["-R", regex] if regex else []), env)


def row(name):
    def step(d, env):
        print(f"+ row {name}", flush=True)
        if not run_row(name, d, env):
            raise SystemExit(f"check: row {name} failed")
    return step


def traced(name, args, check):
    """Run a bench with --timeline and check the Chrome trace."""
    def step(d, env):
        print(f"+ {name} {' '.join(args)} --timeline", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp, "trace.json")
            run_bench(d, name, args, tmp, env, trace)
            check(json.loads(trace.read_text()))
    return step


@dataclass
class Lane:
    dir: str
    flags: list
    targets: list      # empty: build everything
    env: dict
    steps: list


ASAN = ["-DRIO_SANITIZE=ON", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
ASAN_ENV = {"ASAN_OPTIONS": "abort_on_error=1:detect_leaks=1",
            "UBSAN_OPTIONS": "print_stacktrace=1"}
RELEASE = ["-DCMAKE_BUILD_TYPE=Release"]
ORACLE_FUZZ = "*FaultFuzz*:*IommuFuzz*:*RiommuFuzz*"
CHURN_SEEDS = "401,1201,9001"

LANES = {
    # Tier-1 under ASan+UBSan, then the recovery-path campaigns with
    # seeds only this lane runs.
    "asan": Lane("build-asan", ASAN, [], ASAN_ENV, [
        ctest(),
        fuzz(ORACLE_FUZZ, "7001,7919,104729"), test("fault_test"),
        fuzz("*LifecycleFuzz*", "5501,7703"), test("lifecycle_test"),
        fuzz("*VirtFuzz*", "6007,28657"), test("virt_test"),
        test("magazine_churn_test"),
    ]),
    # Threads run only for uncoupled sweeps (bench_selfperf); coupled
    # cluster runs asked for 4 threads must stay inline, so TSan would
    # flag a second thread touching the cross-lane mailbox or the
    # per-lane SLO recorders.
    "tsan": Lane("build-tsan",
                 ["-DRIO_SANITIZE=thread",
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["parallel_test", "obs_test", "des_test", "spinlock_test",
                  "magazine_churn_test", "bench_selfperf", "fuzz_test",
                  "bench_cluster_rdma", "bench_tail_latency"],
                 {"TSAN_OPTIONS": "halt_on_error=1 second_deadlock_stack=1"},
                 [test("parallel_test"), test("obs_test"), test("des_test"),
                  test("spinlock_test"), test("magazine_churn_test"),
                  bench("bench_selfperf", "--threads", "4", "--quick"),
                  fuzz("*ClusterFuzz*"),
                  bench("bench_cluster_rdma", "--connections", "64",
                        "--quick", "--threads", "4"),
                  bench("bench_tail_latency", "--quick", "--slo",
                        "--threads", "4")]),
    # Release build: obs suite and every golden (instrumentation is
    # zero-cost at -O3 too), then Chrome-trace export validation.
    "obs": Lane("build-obs", RELEASE, [], {}, [
        ctest("obs_test|golden_"),
        traced("bench_fault_storm", [], check_qi_trace),
        traced("bench_wire_storm",
               ["--quick", "--loss", "0.02", "--timeline-cap", "262144"],
               check_op_trace),
    ]),
    # An idle guest layer is a no-op; the guest fuzz soak; the full
    # platform sweep (which exits nonzero unless nested paging widens
    # the rIOMMU advantage).
    "virt": Lane("build-virt", RELEASE, [], {}, [
        ctest("virt_test|magazine_churn_test|golden_virt"),
        fuzz("*VirtFuzz*", "9001,31337"),
        bench("bench_virt"),
    ]),
    # QP connect/teardown churn, incast and fault NAKs under ASan, and
    # an erosion sweep through 1K QPs/machine.
    "cluster": Lane("build-cluster-asan", ASAN,
                    ["cluster_test", "fuzz_test", "bench_cluster_rdma"],
                    ASAN_ENV, [
                        test("cluster_test"),
                        fuzz("*ClusterFuzz*", "1299709,15485863,32452843"),
                        row("golden_cluster"),
                        bench("bench_cluster_rdma", "--connections", "1024",
                              "--quick"),
                    ]),
    # Loss, dup, delay, incast drops, go-back-N and QP-error recovery
    # under ASan, then the full storm sweep with its own asserts.
    "wire": Lane("build-wire-asan", ASAN,
                 ["cluster_test", "fuzz_test", "bench_wire_storm"],
                 ASAN_ENV, [
                     test("cluster_test"),
                     fuzz("*WireFuzz*", "2147483647,998244353,613566757"),
                     row("golden_wire_storm"),
                     bench("bench_wire_storm", "--quick"),
                 ]),
    # Pre-copy queues, QP-error re-queue and blackout teardown under
    # ASan.
    "migrate": Lane("build-migrate-asan", ASAN,
                    ["migrate_test", "fuzz_test", "bench_migration"],
                    ASAN_ENV, [
                        test("migrate_test"),
                        fuzz("*MigrateFuzz*", "424243,797003,1299709"),
                        row("golden_migration"),
                    ]),
    # Wider oracle and cluster campaigns on a plain build; the other
    # campaigns at their compiled-in seeds.
    "fuzz": Lane("build", [], ["fuzz_test", "fault_test"], {}, [
        fuzz(ORACLE_FUZZ, "11213,19937,2203,86243,216091"),
        fuzz("*ClusterFuzz*", "104651,611953"),
        fuzz(f"-{ORACLE_FUZZ}:*ClusterFuzz*"),
        test("fault_test"),
    ]),
    # Surprise unplug/replug: the campaign widened, then one full-stack
    # churn sweep per extra seed (the strict+ time-out storm included).
    "lifecycle": Lane("build", [],
                      ["lifecycle_test", "fuzz_test",
                       "bench_lifecycle_churn", FIG7], {}, [
        test("lifecycle_test"),
        fuzz("*LifecycleFuzz*", CHURN_SEEDS),
        *(bench("bench_lifecycle_churn", "--rate", "0.5,2", "--seed", s)
          for s in CHURN_SEEDS.split(",")),
        row("golden_lifecycle"),
    ]),
}


def run_lane(name):
    lane = LANES[name]
    d = ROOT / lane.dir
    sh(["cmake", "-B", d, "-S", ROOT, *lane.flags])
    targets = ["--target", *lane.targets] if lane.targets else []
    sh(["cmake", "--build", d, "-j", str(os.cpu_count()), *targets])
    env = dict(os.environ, **lane.env)
    for step in lane.steps:
        step(d, env)
    print(f"lane {name} passed")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--row", choices=ROWS)
    what.add_argument("--lane", choices=LANES)
    what.add_argument("--regen", metavar="NAME")
    a = ap.parse_args()
    if a.row:
        sys.exit(0 if run_row(a.row) else 1)
    if a.lane:
        run_lane(a.lane)
    else:
        regen(a.regen)


if __name__ == "__main__":
    main()
