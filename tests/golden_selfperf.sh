#!/usr/bin/env bash
# Thread-count invariance regression for the parallel engine: the
# engine-backed sweeps must produce byte-identical JSON whether the
# lanes run sequentially or on several threads, and that output must
# still match the pre-refactor checked-in goldens. Any diff means a
# lane leaked state across threads — a shared RNG draw, a racy
# counter feeding a result, a reordered mailbox.
#
#   1. bench_fig7 --threads 1  ==  checked-in fig7 golden (byte for byte)
#   2. bench_fig7 --threads 4  ==  --threads 1   (modulo the threads field)
#   3. bench_virt --platform bare --threads 4  ==  fig7 golden
#      (modulo bench name + threads field)
#
# Usage: golden_selfperf.sh <bench_fig7> <bench_virt> <fig7_golden.json>
set -euo pipefail

fig7="$1"
virt="$2"
golden="$3"
t1="$(mktemp)"
t4="$(mktemp)"
vbare="$(mktemp)"
trap 'rm -f "$t1" "$t4" "$vbare"' EXIT

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 "$fig7" --threads 1 --json "$t1" > /dev/null
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 "$fig7" --threads 4 --json "$t4" > /dev/null
RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 "$virt" --platform bare --threads 4 \
    --json "$vbare" > /dev/null

# The threads meta field legitimately records the flag; the rows must
# not move. strip_meta also drops the bench name for cross-binary
# comparison (bench_virt names its output differently, golden_virt
# style).
strip_meta() {
    sed -e 's/"bench": "[^"]*"/"bench": ""/' \
        -e 's/"threads": [0-9]*/"threads": 0/' "$1"
}

if ! diff -u "$golden" "$t1"; then
    echo "golden_selfperf: --threads 1 diverged from $golden" >&2
    exit 1
fi
if ! diff -u <(strip_meta "$t1") <(strip_meta "$t4"); then
    echo "golden_selfperf: --threads 4 diverged from --threads 1" >&2
    exit 1
fi
if ! diff -u <(strip_meta "$golden") <(strip_meta "$vbare"); then
    echo "golden_selfperf: bench_virt bare --threads 4 diverged" >&2
    exit 1
fi
echo "golden_selfperf: threaded sweeps are byte-identical"
