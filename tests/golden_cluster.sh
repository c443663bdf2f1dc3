#!/usr/bin/env bash
# Cluster-fabric determinism regression: bench_cluster_rdma at the
# smallest sweep point must reproduce the checked-in golden byte for
# byte, and must not move with --threads (coupled lanes run inline).
# The bench itself RIO_ASSERTs the fig7-equivalent mode ordering (none
# cheapest, riommu < strict at 64 QPs/machine), so a passing run
# re-certifies the single-connection-regime result; this script pins
# the numbers. Any diff means cross-machine mail ordering, a stray
# RNG draw, or accounting drift in the RDMA/cluster stack.
#
#   1. bench_cluster_rdma --connections 64 --quick --threads 1
#        ==  checked-in golden (byte for byte)
#   2. --threads 4  ==  --threads 1   (modulo the threads field)
#
# Usage: golden_cluster.sh <bench_cluster_rdma> <golden.json>
set -euo pipefail

bench="$1"
golden="$2"
t1="$(mktemp)"
t4="$(mktemp)"
trap 'rm -f "$t1" "$t4"' EXIT

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --connections 64 --quick --threads 1 --json "$t1" > /dev/null
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
    "$bench" --connections 64 --quick --threads 4 --json "$t4" > /dev/null

# The threads meta field legitimately records the flag; rows must not.
strip_meta() {
    sed -e 's/"threads": [0-9]*/"threads": 0/' "$1"
}

if ! diff -u "$golden" "$t1"; then
    echo "golden_cluster: --threads 1 diverged from $golden" >&2
    exit 1
fi
if ! diff -u <(strip_meta "$t1") <(strip_meta "$t4"); then
    echo "golden_cluster: --threads 4 diverged from --threads 1" >&2
    exit 1
fi
echo "golden_cluster: fabric sweep is byte-identical across threads"
