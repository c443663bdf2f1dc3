#!/usr/bin/env bash
# Observability zero-cost regression: with the obs layer live
# (metrics registry + flight recorder live on every hot path),
# bench_fig7 must still reproduce the checked-in golden JSON byte for
# byte. Instrumentation charges no simulated cycles and draws no RNG,
# so any diff here means an instrumentation point leaked into the
# simulation. If the bench itself changed intentionally, regenerate:
#
#   RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 bench_fig7_cycles_per_packet \
#       --json tests/golden/fig7_quick.json
#
# With the optional 3rd/4th args, the same property is pinned for the
# distributed tracing stack: bench_cluster_rdma with FULL tracing on
# (--timeline + --slo, every op allocating a trace id, every hot path
# emitting span events, every CQE recording an exact SLO sample) must
# still match the PR 7 cluster golden byte for byte. Trace-id
# allocation and span emission ride the deterministic replay without
# touching it.
#
# Usage: golden_obs.sh <bench_fig7> <golden.json> \
#            [<bench_cluster_rdma> <cluster_golden.json>]
set -euo pipefail

bench="$1"
golden="$2"
out="$(mktemp)"
trace="$(mktemp)"
trap 'rm -f "$out" "$trace"' EXIT

RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 "$bench" --json "$out" > /dev/null

if ! diff -u "$golden" "$out"; then
    echo "golden_obs: instrumented bench diverged from $golden" >&2
    exit 1
fi
echo "golden_obs: output matches $golden"

if [ "$#" -ge 4 ]; then
    cluster_bench="$3"
    cluster_golden="$4"
    RIO_BENCH_QUICK=1 RIO_JSON_STABLE=1 \
        "$cluster_bench" --connections 64 --quick --threads 1 \
        --json "$out" --timeline "$trace" --slo > /dev/null
    if ! diff -u "$cluster_golden" "$out"; then
        echo "golden_obs: cluster bench with full tracing diverged" \
             "from $cluster_golden" >&2
        exit 1
    fi
    # The trace must actually contain stitched op spans — a silently
    # empty export would make the zero-cost check vacuous.
    if ! grep -q '"cat": "op"' "$trace"; then
        echo "golden_obs: exported trace has no op spans" >&2
        exit 1
    fi
    echo "golden_obs: cluster run with tracing matches $cluster_golden"
fi
