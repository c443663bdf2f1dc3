/**
 * @file
 * Migration workload: the one live-migration driver behind
 * bench_migration, the migrate_test suite and the MigrateFuzz
 * campaign, and the one judge of its result (migrationViolations).
 * It builds a 2-machine sys::Cluster with the migration
 * overlay (and the wire-storm fabric at loss > 0), wraps both
 * machines in guests when a vIOMMU platform is under test, connects
 * the guest's data-plane QPs plus a stray peer, migrates machine 0's
 * guest to machine 1, and audits the result.
 *
 * The stray peer: machine 1 keeps posting 512-B RDMA writes at its
 * QP into machine 0, one every 8 us, before and after the migration
 * — the source of migrated-away arrivals. Fixed gap, zero RNG draws.
 * The gap is sized so even the most trap-expensive platform x mode
 * combination (shadow/strict: wp-trap sync plus synchronous
 * invalidation per op) stays under the posting core's capacity — the
 * stray peer is background noise, not a core-saturating storm whose
 * queueing delay would masquerade as blackout time.
 *
 * Determinism: the only random draws are the seeded dirtier and the
 * hostile wire, so a given MigrationParams (and hostility hook)
 * replays byte-for-byte.
 */
#ifndef RIO_WORKLOADS_MIGRATION_H
#define RIO_WORKLOADS_MIGRATION_H

#include <functional>
#include <string>
#include <vector>

#include "dma/protection_mode.h"
#include "migrate/migrate.h"
#include "sys/cluster.h"
#include "virt/platform.h"

namespace rio::workloads {

/** The knobs callers set differently; everything else is fixed. */
struct MigrationParams
{
    dma::ProtectionMode mode = dma::ProtectionMode::kRiommu;
    virt::Platform platform = virt::Platform::kBare;
    double dirty = 0.0; //!< guest-CPU dirty rate, pages/ms
    u64 dirty_seed = 1;
    double loss = 0.0; //!< hostile-wire drop rate (sys::stormWire)
    u64 pages = 4096;
    unsigned app_qps = 8; //!< guest data QPs live at blackout
    bool strays = true;   //!< fire pages x 8 strays at the old QP
};

/** What one migration did, audited after the engine idled. */
struct MigrationResult
{
    migrate::MigrationReport rep;
    u64 src_hash = 0; //!< Migrator::arenaHash of the source arena
    u64 dst_hash = 0; //!< ... and of the target arena
    u64 stray_arrivals = 0; //!< the source NIC's migrated-away ledger
    u64 stray_faulted = 0;
    u64 stray_landed = 0;
    bool leaks_clean = false; //!< guest + hypervisor handles, both machines
    Nanos src_now = 0; //!< lane clocks when the engine idled
    Nanos dst_now = 0;
};

/**
 * Mid-migration trouble: called after Migrator::start() and the stray
 * fire are queued, before the engine runs, with the established app
 * QP indices on machine 0.
 */
using MigrationHostility = std::function<void(
    sys::Cluster &, migrate::Migrator &, const std::vector<u32> &)>;

/** Run one live migration of machine 0's guest to machine 1. */
MigrationResult runMigration(const MigrationParams &params,
                             const MigrationHostility &hostility = {});

/**
 * The rules every migration must satisfy, whatever the hostility.
 * Returns one line per broken rule, "<rule>: <detail>", and an empty
 * string for a clean run:
 *   completed      the migration completed and did not fail;
 *   arena          the target's guest RAM equals the source's;
 *   leaks          guest and hypervisor handles quiesced leak-free;
 *   stray-tier     with strays on: some reached the migrated-away
 *                  ledger; the fully safe modes (dma::modeIsFullySafe)
 *                  landed none and faulted some; mode none faulted
 *                  none and landed some. The deferring modes' stale
 *                  window may land strays, so they are not judged.
 */
std::string migrationViolations(const MigrationParams &params,
                                const MigrationResult &result);

} // namespace rio::workloads

#endif // RIO_WORKLOADS_MIGRATION_H
