#!/usr/bin/env bash
# Live-migration lane under AddressSanitizer: pre-copy chunk queues,
# the inflight map keyed by reused WQE slots, QP-error re-queue on the
# migration stream, the blackout teardown (quiesce without detach) and
# the target-side sink applies are exactly the paths where a dangling
# Chunk, a double-applied page or a use-after-quiesce mapping would
# hide, so the whole lane runs on an ASan+UBSan build. Covers the
# migration suite, a MigrateFuzz soak with seeds only this lane runs,
# and the golden_migrate inertness/determinism gate.
#
# Run from the repo root:
#
#   scripts/ci_migrate.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-migrate-asan}"

cmake -B "$BUILD_DIR" -S . -DRIO_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" -- \
    migrate_test fuzz_test bench_migration

export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1"

"$BUILD_DIR/tests/migrate_test"

# MigrateFuzz soak: platform x dirty x loss x stream-abort campaigns,
# each seed replayed at threads = 1 and 2 and compared field for
# field (arena hashes and the migrated-away ledger included).
export RIO_MIGRATE_EXTRA_SEEDS="424243,797003,1299709"
"$BUILD_DIR/tests/fuzz_test" --gtest_filter='*MigrateFuzz*'
unset RIO_MIGRATE_EXTRA_SEEDS

# Inertness + determinism gate (disabled overlay == cluster golden;
# armed sweep byte-identical across thread counts), under ASan.
bash tests/golden_migrate.sh "$BUILD_DIR/bench/bench_migration" \
    tests/golden/cluster_rdma_64_quick.json

echo "migrate lane passed"
