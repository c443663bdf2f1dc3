#include "workloads/migration.h"

#include <memory>

#include "base/logging.h"
#include "sys/wire.h"
#include "virt/guest.h"

namespace rio::workloads {

namespace {

constexpr Nanos kStrayGapNs = 8000;
constexpr u32 kStrayBytes = 512;
constexpr u64 kStraysPerPage = 8;
constexpr unsigned kQpHeadroom = 4; //!< the stray peer + churn
constexpr u64 kConvergeDirty = 16;

struct Stray
{
    sys::Cluster *cl = nullptr;
    u32 qp = 0;
    u64 remaining = 0;
};

void
strayFire(const std::shared_ptr<Stray> &s)
{
    if (s->remaining == 0)
        return;
    --s->remaining;
    (void)s->cl->nic(1).postWrite(s->qp, kStrayBytes, 0);
    s->cl->lane(1).sim().scheduleAfter(kStrayGapNs,
                                       [s] { strayFire(s); });
}

} // namespace

MigrationResult
runMigration(const MigrationParams &p, const MigrationHostility &hostility)
{
    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.mode = p.mode;
    cfg.max_qps = p.app_qps + kQpHeadroom;
    cfg.migration = true;
    // The reliability layer stays on even at loss 0: its responder-side
    // liveness check is what classifies post-migration strays into the
    // migrated-away ledger (a bare wire never inspects the dead QP).
    cfg.reliability.enabled = true;
    cfg.wire = sys::stormWire(p.loss); // unarmed at loss 0
    sys::Cluster cl(cfg);

    // Guests wrap the machines when a vIOMMU platform is under test;
    // each binds its machine's guest data handle. The hypervisor
    // (migration) handles stay unbound — pre-copy is host work.
    std::unique_ptr<virt::Guest> sg, dg;
    unsigned src_binding = 0;
    if (p.platform != virt::Platform::kBare) {
        sg = std::make_unique<virt::Guest>(cl.machine(0), p.platform);
        dg = std::make_unique<virt::Guest>(cl.machine(1), p.platform);
        src_binding = sg->bindHandle(cl.handle(0), cl.machine(0).core(0));
        (void)dg->bindHandle(cl.handle(1), cl.machine(1).core(0));
    }
    cl.bringUp();

    // Establish the guest's data-plane QPs (the live rings the rIOMMU
    // blackout is bounded by) and the stray peer's reverse QP.
    std::vector<u32> app_qps;
    auto stray = std::make_shared<Stray>();
    stray->cl = &cl;
    bool stray_up = false;
    cl.machine(0).core(0).post([&] {
        for (unsigned q = 0; q < p.app_qps; ++q) {
            auto res = cl.nic(0).connect(1, [&app_qps](u32 qp, bool ok) {
                if (ok)
                    app_qps.push_back(qp);
            });
            RIO_ASSERT(res.isOk(), "app QP connect failed");
        }
    });
    if (p.strays) {
        cl.machine(1).core(0).post([&] {
            auto res = cl.nic(1).connect(0, [&](u32 qp, bool ok) {
                stray->qp = qp;
                stray_up = ok;
            });
            RIO_ASSERT(res.isOk(), "stray QP connect failed");
        });
    }
    cl.run();
    RIO_ASSERT(app_qps.size() == p.app_qps, "only ", app_qps.size(),
               " of ", p.app_qps, " app QPs established");
    RIO_ASSERT(!p.strays || stray_up, "stray QP failed to establish");

    migrate::MigrateConfig mc;
    mc.src = 0;
    mc.dst = 1;
    mc.platform = p.platform;
    mc.guest_pages = p.pages;
    mc.dirty_pages_per_ms = p.dirty;
    mc.dirty_seed = p.dirty_seed;
    mc.converge_dirty = kConvergeDirty;
    migrate::Migrator mig(cl, mc);
    mig.setGuests(sg.get(), dg.get(), src_binding);
    mig.start();
    if (p.strays) {
        // Open-loop fire at the old QP, overlapping every pre-copy
        // round, the blackout, and a long post-resume tail.
        stray->remaining = p.pages * kStraysPerPage;
        cl.lane(1).sim().scheduleAfter(kStrayGapNs,
                                       [stray] { strayFire(stray); });
    }
    if (hostility)
        hostility(cl, mig, app_qps);
    cl.run();

    MigrationResult out;
    out.rep = mig.report();
    out.src_hash = mig.arenaHash(false);
    out.dst_hash = mig.arenaHash(true);
    const rdma::RdmaStats &src_stats = cl.nic(0).stats();
    out.stray_arrivals = src_stats.migrated_away_arrivals;
    out.stray_faulted = src_stats.migrated_away_faulted;
    out.stray_landed = src_stats.migrated_away_landed;
    out.src_now = cl.lane(0).sim().now();
    out.dst_now = cl.lane(1).sim().now();

    mig.cleanup();
    cl.quiesce();
    out.leaks_clean = true;
    for (unsigned m = 0; m < 2; ++m) {
        out.leaks_clean &= cl.checkLeaks(m).clean();
        out.leaks_clean &= cl.checkMigLeaks(m).clean();
    }
    return out;
}

} // namespace rio::workloads
