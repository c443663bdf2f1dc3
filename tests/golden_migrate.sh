#!/usr/bin/env bash
# Live-migration inertness + determinism regression for bench_migration.
#
#   1. The migration subsystem is provably inert when off: `--loss 0`
#      runs the bench_cluster_rdma base recipe on a migration-DISABLED
#      cluster, and every row must be byte-identical to the checked-in
#      cluster golden. A diff means the overlay NICs charged cycles,
#      drew RNG, or perturbed lane scheduling while switched off.
#   2. The armed engine is deterministic: the full migration sweep
#      (pre-copy over a lossy wire, blackout, stray ledger) must be
#      byte-identical at --threads 1 and --threads 4 (modulo the
#      threads meta field) — the engine runs coupled lanes inline, so
#      dirtier draws, stream retransmits and per-platform state replay
#      must not see the thread count at all.
#
# Usage: golden_migrate.sh <bench_migration> <cluster_golden.json>
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
    echo "golden_migrate: disabled migration overlay is not inert" \
         "(--loss 0 rows diverged from $golden)" >&2
    exit 1
fi

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --quick --threads 1 --json "$t1" > /dev/null
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --quick --threads 4 --json "$t4" > /dev/null

strip_meta() {
    sed -e 's/"threads": [0-9]*/"threads": 0/' "$1"
}

if ! diff -u <(strip_meta "$t1") <(strip_meta "$t4"); then
    echo "golden_migrate: migration sweep at --threads 4 diverged" \
         "from --threads 1" >&2
    exit 1
fi
echo "golden_migrate: disabled overlay inert, armed sweep thread-invariant"
