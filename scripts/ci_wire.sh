#!/usr/bin/env bash
# Hostile-wire lane under AddressSanitizer: loss/dup/delay injection,
# bounded-port incast drops, go-back-N retransmit, RTO backoff and
# QP-error recovery are exactly the paths where a dangling Op, a
# double-freed QP slot or a use-after-teardown mail would hide, so
# the whole lane runs on an ASan+UBSan build. Covers the cluster
# suite (late-arrival-after-teardown included), a WireFuzz soak with
# seeds only this lane runs, the golden_wire inertness/determinism
# gate, and a full (non-quick) storm sweep.
#
# Run from the repo root:
#
#   scripts/ci_wire.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-wire-asan}"

cmake -B "$BUILD_DIR" -S . -DRIO_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" -- \
    cluster_test fuzz_test bench_wire_storm

export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1"

"$BUILD_DIR/tests/cluster_test"

# WireFuzz soak: loss x incast x abort-churn campaigns, each seed
# replayed at threads = 1 and 3 and compared field for field
# (retransmit, RTO, QP-error and late-arrival counters included).
export RIO_WIRE_EXTRA_SEEDS="2147483647,998244353,613566757"
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='*WireFuzz*'
unset RIO_WIRE_EXTRA_SEEDS

# Inertness + determinism gate (disarmed == cluster golden; armed
# storm byte-identical across thread counts), under ASan.
bash tests/golden_wire.sh "$BUILD_DIR/bench/bench_wire_storm" \
    tests/golden/cluster_rdma_64_quick.json

# Full storm sweep: 3 losses x incast x 7 modes with the bench's own
# conservation and protection asserts armed, sanitizers watching.
"$BUILD_DIR/bench/bench_wire_storm" --quick > /dev/null

echo "wire lane passed"
