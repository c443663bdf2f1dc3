#!/usr/bin/env bash
# Hostile-wire inertness + determinism regression for bench_wire_storm.
#
#   1. Disarmed wire is provably inert: `--loss 0` emits the
#      bench_cluster_rdma base rows, and every row must be
#      byte-identical to the checked-in cluster golden. A diff means
#      the fault model drew RNG, the reliability layer charged cycles,
#      or the port queue reordered mail while switched off.
#   2. The armed wire is deterministic: a lossy/congested storm point
#      must be byte-identical at --threads 1 and --threads 4 (modulo
#      the threads meta field) — drop/dup/delay draws, RTO timers and
#      QP-error recovery all replay identically whatever --threads says.
#
# Usage: golden_wire.sh <bench_wire_storm> <cluster_golden.json>
set -euo pipefail

bench="$1"
golden="$2"
compat="$(mktemp)"
t1="$(mktemp)"
t4="$(mktemp)"
trap 'rm -f "$compat" "$t1" "$t4"' EXIT

rows() {
    grep -o '{"mode": "[^"]*", "variant": "base", "connections": 64[^}]*}' "$1"
}

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --loss 0 --quick --threads 1 --json "$compat" > /dev/null
if ! diff -u <(rows "$golden") <(rows "$compat"); then
    echo "golden_wire: disarmed wire is not inert (--loss 0 rows" \
         "diverged from $golden)" >&2
    exit 1
fi

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --loss 0.02 --quick --threads 1 --json "$t1" > /dev/null
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --loss 0.02 --quick --threads 4 --json "$t4" > /dev/null

strip_meta() {
    sed -e 's/"threads": [0-9]*/"threads": 0/' "$1"
}

if ! diff -u <(strip_meta "$t1") <(strip_meta "$t4"); then
    echo "golden_wire: storm at --threads 4 diverged from --threads 1" >&2
    exit 1
fi
echo "golden_wire: disarmed wire inert, armed storm thread-invariant"
