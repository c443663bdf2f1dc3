/**
 * @file
 * migrate::Migrator correctness suite — the live-migration contract:
 *   - guest RAM is byte-identical on the target after resume (FNV-1a
 *     arena hash), across platforms, protection modes, dirty rates
 *     and hostility;
 *   - the per-platform vIOMMU state transfer orders the blackout the
 *     way DESIGN.md §16 claims (shadow < nested < emulated) and the
 *     rIOMMU blackout is bounded by live-ring count, not memory size;
 *   - post-migration strays hit the migrated-away ledger tier and, in
 *     protected modes, fault instead of landing;
 *   - hostility mid-migration — app-QP death on the source fleet, a
 *     QP error on the migration stream itself, teardown/reconnect
 *     churn during rounds — never loses or forks a page, and every
 *     run quiesces leak-free on both guest and hypervisor handles;
 *   - a migration replays byte-for-byte, report field by report
 *     field (coupled lanes run inline at any thread count);
 *   - the arena hash notices a single flipped byte;
 *   - the two hostile shapes that once completed with diverged guest
 *     RAM (a duplicate page send re-applied over a newer copy; an ACK
 *     from the stream QP's previous incarnation completing a new send)
 *     now migrate intact.
 *
 * Every experiment runs through workloads::runMigration; the
 * hostility hook is where a test schedules mid-migration trouble.
 * Completion, identical arenas, a leak-free quiesce and the stray
 * tiers are judged by workloads::migrationViolations.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dma/protection_mode.h"
#include "mem/phys_mem.h"
#include "migrate/migrate.h"
#include "sys/cluster.h"
#include "virt/platform.h"
#include "workloads/migration.h"

namespace rio {
namespace {

using dma::ProtectionMode;
using virt::Platform;
using workloads::MigrationParams;
using workloads::migrationViolations;
using workloads::runMigration;

/** Suite-sized experiment (the driver's defaults are bench-sized). */
MigrationParams
smallParams(ProtectionMode mode, Platform platform)
{
    MigrationParams p;
    p.mode = mode;
    p.platform = platform;
    p.pages = 512;
    p.app_qps = 4;
    p.strays = false;
    return p;
}

/** RAM lands byte-identical for every platform x a mode sample, with
 * an active dirtier forcing multi-round pre-copy and re-shipping; the
 * strays fired at the old QPs meanwhile hit the migrated-away ledger,
 * faulted in the protected modes and landed in mode none (the suite's
 * stray-tier rule). */
TEST(Migrate, MemoryByteIdenticalAcrossPlatformsAndModes)
{
    for (Platform platform : {Platform::kBare, Platform::kEmulated,
                              Platform::kShadow, Platform::kNested}) {
        for (ProtectionMode mode :
             {ProtectionMode::kRiommu, ProtectionMode::kStrict,
              ProtectionMode::kNone}) {
            SCOPED_TRACE(std::string(dma::modeName(mode)) + "/" +
                         virt::platformName(platform));
            MigrationParams p = smallParams(mode, platform);
            p.dirty = 400; // hot enough to re-dirty shipped pages
            p.strays = true;
            auto r = runMigration(p);
            EXPECT_EQ(migrationViolations(p, r), "");
            EXPECT_GE(r.rep.pages_shipped, p.pages);
            EXPECT_GT(r.rep.dirtier_writes, 0u);
            EXPECT_GT(r.rep.blackout_ns, 0);
            EXPECT_LT(r.rep.blackout_ns, r.rep.total_ns);
        }
    }
}

/** The hash is the oracle of every test in this suite, so it must see
 * one flipped byte: the top byte of a word (the bits a word-wide FNV
 * step mixes least) and the very last byte of the arena. The check
 * runs on the target lane long after resume; restoring the byte
 * restores the match, which the driver's own post-run hashes confirm. */
TEST(Migrate, ArenaHashSeesOneFlippedByte)
{
    MigrationParams p =
        smallParams(ProtectionMode::kRiommu, Platform::kBare);
    p.dirty = 100;
    bool checked = false;
    auto check = [&](sys::Cluster &cl, migrate::Migrator &mig) {
        ASSERT_TRUE(mig.done());
        mem::PhysicalMemory &pm = cl.machine(1).ctx().memory();
        const PhysAddr base = mig.dstArena();
        for (const PhysAddr a : {base + 7, base + p.pages * kPageSize - 1}) {
            const u8 b = pm.read8(a);
            EXPECT_EQ(mig.arenaHash(false), mig.arenaHash(true));
            pm.write8(a, b ^ 0x80);
            EXPECT_NE(mig.arenaHash(false), mig.arenaHash(true))
                << "flip at arena offset " << a - base;
            pm.write8(a, b);
        }
        checked = true;
    };
    auto r = runMigration(p, [&](sys::Cluster &cl, migrate::Migrator &mig,
                                 const std::vector<u32> &) {
        cl.lane(1).sim().scheduleAfter(1'000'000'000,
                                       [&] { check(cl, mig); });
    });
    EXPECT_TRUE(checked);
    EXPECT_TRUE(r.rep.completed);
    EXPECT_EQ(r.src_hash, r.dst_hash);
}

/** DESIGN.md §16's per-platform transfer table, as a blackout
 * ordering: shadow ships only what is mapped, nested ships a stage-2
 * covering the whole arena, emulated replays every mapping as an
 * install+invalidate exit pair on the target. */
TEST(Migrate, BlackoutOrdersShadowUnderNestedUnderEmulated)
{
    auto run = [](Platform platform) {
        MigrationParams p = smallParams(ProtectionMode::kStrict, platform);
        p.pages = 4096;
        p.dirty = 50;
        p.app_qps = 8;
        return runMigration(p);
    };
    auto sh = run(Platform::kShadow);
    auto ne = run(Platform::kNested);
    auto em = run(Platform::kEmulated);
    ASSERT_TRUE(sh.rep.completed && ne.rep.completed && em.rep.completed);
    EXPECT_LT(sh.rep.state_bytes, ne.rep.state_bytes);
    EXPECT_LT(sh.rep.blackout_ns, ne.rep.blackout_ns);
    EXPECT_LT(ne.rep.blackout_ns, em.rep.blackout_ns);
    EXPECT_GT(em.rep.mappings_replayed, 0u);
}

/** The paper's O(rings) argument, turned into downtime: the rIOMMU
 * blackout grows with live-ring count and stays flat in memory. */
TEST(Migrate, RiommuBlackoutBoundedByRingsNotMemory)
{
    auto run = [](unsigned qps, u64 pages) {
        MigrationParams p =
            smallParams(ProtectionMode::kRiommu, Platform::kNested);
        p.app_qps = qps;
        p.pages = pages;
        return runMigration(p);
    };
    auto small = run(2, 1024);
    auto more_rings = run(10, 1024);
    auto more_memory = run(2, 4096);
    ASSERT_TRUE(small.rep.completed && more_rings.rep.completed &&
                more_memory.rep.completed);
    // Each QP adds a ctrl+data ring pair: 8 extra QPs = 16 rings.
    EXPECT_EQ(small.rep.live_rings, 1u + 2u * 2u);
    EXPECT_EQ(more_rings.rep.live_rings, small.rep.live_rings + 16);
    EXPECT_EQ(more_rings.rep.reg_hypercalls, more_rings.rep.live_rings);
    EXPECT_GT(more_rings.rep.blackout_ns, small.rep.blackout_ns);
    // 4x the guest memory: same rings, same re-registration bill.
    EXPECT_EQ(more_memory.rep.live_rings, small.rep.live_rings);
    EXPECT_EQ(more_memory.rep.state_bytes, small.rep.state_bytes);
    EXPECT_LE(more_memory.rep.blackout_ns,
              small.rep.blackout_ns + small.rep.blackout_ns / 10);
}

/** Surprise app death mid-pre-copy: every app QP on the source fleet
 * hard-aborts during round 0. The migration stream is unaffected, the
 * blackout's ring re-registration sees only the survivors, and the
 * arena still lands intact. */
TEST(Migrate, SurpriseAppDeathMidPreCopyStillCompletes)
{
    MigrationParams p =
        smallParams(ProtectionMode::kRiommu, Platform::kNested);
    p.pages = 2048;
    auto r = runMigration(p, [](sys::Cluster &cl, migrate::Migrator &,
                          const std::vector<u32> &qps) {
        cl.lane(0).sim().scheduleAfter(50000, [&cl, qps] {
            cl.machine(0).core(0).post([&cl, qps] {
                for (u32 q : qps)
                    ASSERT_TRUE(cl.nic(0).abortQp(q).isOk());
            });
        });
    });
    EXPECT_EQ(migrationViolations(p, r), "");
    // Only the static ring survives to blackout: the aborted QPs'
    // ring pairs are gone, so the target re-registers 1 ring, not 9.
    EXPECT_EQ(r.rep.live_rings, 1u);
    EXPECT_EQ(r.rep.reg_hypercalls, 1u);
}

/** Hard-abort the migration stream @p at ns into the migration. The
 * stream is the hypervisor NIC's only QP; every slot is aborted so
 * the hook cannot miss it. */
workloads::MigrationHostility
abortStreamAt(Nanos at)
{
    return [at](sys::Cluster &cl, migrate::Migrator &,
                const std::vector<u32> &) {
        cl.lane(0).sim().scheduleAfter(at, [&cl] {
            cl.machine(0).core(0).post([&cl] {
                for (u32 q = 0; q < cl.migNic(0).maxQps(); ++q)
                    (void)cl.migNic(0).abortQp(q);
            });
        });
    };
}

/** A QP error on the migration stream itself: the round resumes on a
 * fresh QP, unacked chunks re-ship in order, and no page is lost or
 * double-applied (the arena hash is the oracle for both). */
TEST(Migrate, StreamQpErrorResumesRoundWithoutPageLoss)
{
    MigrationParams p =
        smallParams(ProtectionMode::kStrict, Platform::kShadow);
    p.pages = 2048;
    p.dirty = 100;
    auto r = runMigration(p, abortStreamAt(100000));
    EXPECT_EQ(migrationViolations(p, r), "");
    EXPECT_GE(r.rep.stream_qp_errors, 1u);
    // Everything unacked at the error re-shipped on the new QP.
    EXPECT_GE(r.rep.pages_shipped, p.pages);
}

/** Teardown/reconnect churn on the source fleet while rounds run:
 * rings come and go under the migrator's feet, and the final
 * re-registration bill reflects the fleet as of blackout. */
TEST(Migrate, SourceFleetChurnDuringRounds)
{
    MigrationParams p =
        smallParams(ProtectionMode::kRiommu, Platform::kNested);
    p.pages = 2048;
    p.dirty = 100;
    unsigned reconnects = 0;
    auto r = runMigration(p, [&reconnects](sys::Cluster &cl,
                                     migrate::Migrator &,
                                     const std::vector<u32> &qps) {
        for (unsigned k = 0; k < qps.size(); ++k) {
            const u32 q = qps[k];
            const bool abort = (k % 2 == 0);
            cl.lane(0).sim().scheduleAfter(
                40000 * (k + 1), [&cl, &reconnects, q, abort] {
                    cl.machine(0).core(0).post([&cl, &reconnects, q,
                                                abort] {
                        if (abort)
                            ASSERT_TRUE(cl.nic(0).abortQp(q).isOk());
                        else
                            ASSERT_TRUE(
                                cl.nic(0).teardown(q, nullptr).isOk());
                        auto res = cl.nic(0).connect(
                            1, [&reconnects](u32, bool ok) {
                                if (ok)
                                    ++reconnects;
                            });
                        ASSERT_TRUE(res.isOk());
                    });
                });
        }
    });
    EXPECT_EQ(migrationViolations(p, r), "");
    EXPECT_EQ(reconnects, p.app_qps);
    // The reconnected fleet is what blackout re-registers: all 4
    // replacement QPs alive, original ones gone.
    EXPECT_EQ(r.rep.live_rings, 1u + 2u * 4u);
}

std::string
migFingerprint()
{
    MigrationParams p =
        smallParams(ProtectionMode::kRiommu, Platform::kNested);
    p.pages = 1024;
    p.dirty = 300;
    p.loss = 0.02;
    p.strays = true;
    auto r = runMigration(p);
    std::ostringstream os;
    os << r.rep.completed << '/' << r.rep.rounds << '/'
       << r.rep.pages_shipped << '/' << r.rep.pages_reshipped << '/'
       << r.rep.page_naks << '/' << r.rep.state_chunks << '/'
       << r.rep.state_bytes << '/' << r.rep.reg_hypercalls << '/'
       << r.rep.live_rings << '/' << r.rep.stream_qp_errors << '/'
       << r.rep.dirtier_writes << '/' << r.rep.blackout_ns << '/'
       << r.rep.total_ns << '/' << r.stray_arrivals << '/'
       << r.stray_faulted << '/' << r.stray_landed << '/' << r.src_hash
       << '/' << r.dst_hash << '/' << r.src_now << '/' << r.dst_now;
    return os.str();
}

/** The migration driver's determinism gate: the whole migration —
 * rounds, freight, blackout, strays, hashes, lane clocks — replays
 * identically, even over a lossy wire. (Coupled lanes run inline at
 * any thread count, so a replay is the whole contract.) */
TEST(Migrate, ReportReplaysIdentically)
{
    const std::string one = migFingerprint();
    const std::string two = migFingerprint();
    EXPECT_EQ(one, two);
}

/** Regressions: the migration campaign's shapes that once completed
 * with the target's guest RAM differing from the source. Seed 2 in
 * defer+: a late duplicate of an earlier re-ship of a page re-ran the
 * target's apply over the newer copy; a duplicate send is now
 * re-acked, never re-delivered. Seed 47 in strict+ and riommu-: the
 * stream's reconnect after an abort reuses slot 0 and restarts its WQE
 * and PSN, so an ACK from the previous incarnation completed a new
 * send whose page never landed; replies now echo the requester's
 * incarnation. */
TEST(Migrate, OnceDivergedCampaignShapesMigrateIntact)
{
    struct Shape
    {
        ProtectionMode mode;
        Platform platform;
        u64 pages;
        double dirty;
        unsigned app_qps;
        u64 seed;
        Nanos abort_at; //!< 0: no stream abort
    };
    for (const Shape &s :
         {Shape{ProtectionMode::kDeferPlus, Platform::kNested, 256, 300, 2,
                2, 0},
          Shape{ProtectionMode::kStrictPlus, Platform::kShadow, 1024, 100,
                4, 47, 60000},
          Shape{ProtectionMode::kRiommuNc, Platform::kShadow, 1024, 100, 4,
                47, 60000}}) {
        SCOPED_TRACE(dma::modeName(s.mode));
        MigrationParams p;
        p.mode = s.mode;
        p.platform = s.platform;
        p.pages = s.pages;
        p.dirty = s.dirty;
        p.loss = 0.02;
        p.app_qps = s.app_qps;
        p.dirty_seed = s.seed * 131 + 7;
        auto r = runMigration(p, s.abort_at ? abortStreamAt(s.abort_at)
                                            : workloads::MigrationHostility{});
        EXPECT_EQ(migrationViolations(p, r), "");
    }
}

} // namespace
} // namespace rio
