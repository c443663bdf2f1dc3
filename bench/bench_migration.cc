/**
 * @file
 * Live-migration bench: a migrate::Migrator moves a guest between the
 * two machines of a Cluster while dirty-rate, wire-loss, platform
 * (bare / emulated / shadow / nested) and the seven protection modes
 * sweep. Reported per point: pre-copy rounds, pages shipped and
 * re-shipped, vIOMMU state-transfer bytes, the blackout window
 * (quiesce start -> resume-done), and the migrated-away tier of the
 * late-arrival ledger — strays a peer keeps firing at the source
 * after the guest left.
 *
 * The headline claims, asserted:
 *  - Per-platform state transfer orders the baseline blackout:
 *    shadow (merged shadow table moves wholesale, only what is
 *    mapped) < nested (a stage-2 covering the whole arena ships,
 *    memory-proportional) < emulated (every live mapping is replayed
 *    as an install+invalidate exit pair on the target).
 *  - The rIOMMU blackout is re-registration-dominated: one hypercall
 *    per live rRING, so it grows with the ring count (QPs) and stays
 *    flat in guest memory size — the flat-table analogue of the
 *    paper's O(rings) argument, now for migration downtime.
 *  - Protected modes stop every post-migration stray
 *    (migrated_away_landed == 0); mode none cannot fault and lands
 *    them all.
 *  - Guest RAM is byte-identical on the target (FNV-1a arena hash),
 *    at every dirty rate and loss rate, QP errors included.
 *
 * `--loss 0` emits compat rows instead: the exact bench_cluster_rdma
 * base rows on a migration-*disabled* cluster — the golden_migrate
 * ctest diffs them against the checked-in cluster golden to prove the
 * whole migration subsystem is bit-for-bit inert when off.
 */
#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.h"
#include "migrate/migrate.h"
#include "sys/cluster.h"
#include "virt/guest.h"
#include "virt/platform.h"
#include "workloads/fleet.h"

using namespace rio;

namespace {

/** Stray peer: machine 1 keeps posting RDMA writes at the guest's
 * old QP on machine 0, before and after the migration — the source
 * of migrated-away arrivals. Fixed gap, zero RNG draws. The gap is
 * sized so even the most trap-expensive platform x mode combination
 * (shadow/strict: wp-trap sync plus synchronous invalidation per op)
 * stays under the posting core's capacity — the stray peer is
 * background noise, not a core-saturating storm whose queueing delay
 * would masquerade as blackout time. */
constexpr Nanos kStrayGapNs = 8000;
constexpr u32 kStrayBytes = 512;

struct Stray
{
    sys::Cluster *cl = nullptr;
    u32 qp = 0;
    u64 remaining = 0;
    bool connected = false;
};

void
strayTick(const std::shared_ptr<Stray> &s)
{
    if (s->remaining == 0)
        return;
    --s->remaining;
    if (s->connected)
        (void)s->cl->nic(1).postWrite(s->qp, kStrayBytes, 0);
    s->cl->lane(1).sim().scheduleAfter(kStrayGapNs,
                                       [s] { strayTick(s); });
}

/** One migration experiment. */
struct MigRun
{
    dma::ProtectionMode mode = dma::ProtectionMode::kRiommu;
    virt::Platform platform = virt::Platform::kBare;
    double dirty = 0.0; //!< guest-CPU dirty rate, pages/ms
    double loss = 0.0;  //!< hostile-wire drop rate
    u64 pages = 4096;
    unsigned app_qps = 8; //!< guest data QPs live at blackout
    unsigned threads = 1;
    u64 dirty_seed = 1;
    bool strays = true;
};

struct MigOut
{
    migrate::MigrationReport rep;
    u64 stray_arrivals = 0;
    u64 stray_faulted = 0;
    u64 stray_landed = 0;
    bool hash_ok = false;
};

MigOut
runMigration(const MigRun &r)
{
    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.threads = r.threads;
    cfg.mode = r.mode;
    cfg.max_qps = r.app_qps + 4;
    cfg.migration = true;
    // The reliability layer stays on even at loss 0: its responder-side
    // liveness check is what classifies post-migration strays into the
    // migrated-away ledger (a bare wire never inspects the dead QP).
    cfg.reliability.enabled = true;
    if (r.loss > 0.0) {
        // The wire-storm recipe: duplicates and stragglers ride well
        // above the drop rate, long enough to outlive the blackout.
        cfg.wire.drop_rate = r.loss;
        cfg.wire.dup_rate = std::min(0.25, 3 * r.loss);
        cfg.wire.delay_rate = std::min(0.5, 10 * r.loss);
        cfg.wire.delay_max_ns = 60000;
    }
    sys::Cluster cl(cfg);

    // Guests wrap the machines when a vIOMMU platform is under test;
    // each binds its machine's guest data handle. The hypervisor
    // (migration) handles stay unbound — pre-copy is host work.
    std::unique_ptr<virt::Guest> sg, dg;
    unsigned src_binding = 0;
    if (r.platform != virt::Platform::kBare) {
        sg = std::make_unique<virt::Guest>(cl.machine(0), r.platform);
        dg = std::make_unique<virt::Guest>(cl.machine(1), r.platform);
        src_binding = sg->bindHandle(cl.handle(0), cl.machine(0).core(0));
        (void)dg->bindHandle(cl.handle(1), cl.machine(1).core(0));
    }
    cl.bringUp();

    // Establish the guest's data-plane QPs (the live rings the rIOMMU
    // blackout is bounded by) and the stray peer's reverse QP.
    auto stray = std::make_shared<Stray>();
    stray->cl = &cl;
    unsigned connected = 0;
    cl.machine(0).core(0).post([&] {
        for (unsigned q = 0; q < r.app_qps; ++q) {
            auto res = cl.nic(0).connect(1, [&connected](u32, bool ok) {
                if (ok)
                    ++connected;
            });
            RIO_ASSERT(res.isOk(), "app QP connect failed");
        }
    });
    if (r.strays) {
        cl.machine(1).core(0).post([&cl, stray] {
            auto res = cl.nic(1).connect(0, [stray](u32 qp, bool ok) {
                stray->qp = qp;
                stray->connected = ok;
            });
            RIO_ASSERT(res.isOk(), "stray QP connect failed");
        });
    }
    cl.run();
    RIO_ASSERT(connected == r.app_qps, "only ", connected, " of ",
               r.app_qps, " app QPs established");
    RIO_ASSERT(!r.strays || stray->connected,
               "stray QP failed to establish");

    migrate::MigrateConfig mc;
    mc.src = 0;
    mc.dst = 1;
    mc.platform = r.platform;
    mc.guest_pages = r.pages;
    mc.dirty_pages_per_ms = r.dirty;
    mc.dirty_seed = r.dirty_seed;
    mc.converge_dirty = 16;
    migrate::Migrator mig(cl, mc);
    mig.setGuests(sg.get(), dg.get(), src_binding);
    mig.start();
    if (r.strays) {
        // Open-loop fire at the old QP, overlapping every pre-copy
        // round, the blackout, and a long post-resume tail.
        stray->remaining = r.pages * 8;
        cl.lane(1).sim().scheduleAfter(kStrayGapNs,
                                       [stray] { strayTick(stray); });
    }
    cl.run();

    MigOut out;
    out.rep = mig.report();
    RIO_ASSERT(out.rep.completed && !out.rep.failed,
               "migration did not complete at ", dma::modeName(r.mode),
               "/", virt::platformName(r.platform), " loss=", r.loss);
    out.hash_ok = mig.arenaHash(false) == mig.arenaHash(true);
    RIO_ASSERT(out.hash_ok, "guest RAM diverged at ",
               dma::modeName(r.mode), "/",
               virt::platformName(r.platform), " dirty=", r.dirty,
               " loss=", r.loss);
    const rdma::RdmaStats &src_stats = cl.nic(0).stats();
    out.stray_arrivals = src_stats.migrated_away_arrivals;
    out.stray_faulted = src_stats.migrated_away_faulted;
    out.stray_landed = src_stats.migrated_away_landed;

    mig.cleanup();
    cl.quiesce();
    for (unsigned m = 0; m < 2; ++m) {
        RIO_ASSERT(cl.checkLeaks(m).clean(), "guest handle leak on ",
                   m, " at ", dma::modeName(r.mode));
        RIO_ASSERT(cl.checkMigLeaks(m).clean(),
                   "hypervisor handle leak on ", m, " at ",
                   dma::modeName(r.mode));
    }
    return out;
}

bool
isProtectedMode(std::string_view n)
{
    return n == "riommu-" || n == "riommu" || n == "strict" ||
           n == "strict+";
}

void
jsonRow(bench::JsonWriter &json, const char *variant, const MigRun &r,
        const MigOut &o)
{
    json.beginRow();
    json.add("variant", variant);
    json.add("mode", dma::modeName(r.mode));
    json.add("platform", virt::platformName(r.platform));
    json.add("dirty_pages_per_ms", r.dirty);
    json.add("loss", r.loss);
    json.add("pages", r.pages);
    json.add("app_qps", static_cast<u64>(r.app_qps));
    json.add("strays", static_cast<u64>(r.strays));
    json.add("rounds", static_cast<u64>(o.rep.rounds));
    json.add("pages_shipped", o.rep.pages_shipped);
    json.add("pages_reshipped", o.rep.pages_reshipped);
    json.add("page_naks", o.rep.page_naks);
    json.add("state_chunks", o.rep.state_chunks);
    json.add("state_bytes", o.rep.state_bytes);
    json.add("mappings_replayed", o.rep.mappings_replayed);
    json.add("reg_hypercalls", o.rep.reg_hypercalls);
    json.add("live_rings", o.rep.live_rings);
    json.add("stream_qp_errors", o.rep.stream_qp_errors);
    json.add("dirtier_writes", o.rep.dirtier_writes);
    json.add("blackout_ns", static_cast<u64>(o.rep.blackout_ns));
    json.add("total_ns", static_cast<u64>(o.rep.total_ns));
    json.add("stray_arrivals", o.stray_arrivals);
    json.add("stray_faulted", o.stray_faulted);
    json.add("stray_landed", o.stray_landed);
    json.add("hash_ok", static_cast<u64>(o.hash_ok));
}

void
tableRow(Table &t, const MigRun &r, const MigOut &o)
{
    t.addRow(strprintf("%s/%s", dma::modeName(r.mode),
                       virt::platformName(r.platform)),
             {r.dirty, r.loss, static_cast<double>(r.pages),
              static_cast<double>(r.app_qps),
              static_cast<double>(o.rep.rounds),
              static_cast<double>(o.rep.pages_shipped),
              static_cast<double>(o.rep.pages_reshipped),
              static_cast<double>(o.rep.state_bytes) / 1024.0,
              static_cast<double>(o.rep.live_rings),
              static_cast<double>(o.rep.blackout_ns) / 1e3,
              static_cast<double>(o.rep.total_ns) / 1e6,
              static_cast<double>(o.stray_faulted),
              static_cast<double>(o.stray_landed)},
             2);
}

/** The bench_cluster_rdma base rows on a migration-disabled cluster,
 * for the golden_migrate inertness diff (exact bench_wire_storm
 * recipe; byte-identical rows by construction). */
int
runCompat(const bench::BenchArgs &args, bool quick)
{
    bench::printHeader(
        "Migration, --loss 0: migration-disabled compat rows "
        "(byte-identical to bench_cluster_rdma; golden_migrate gate)");
    workloads::FleetParams p;
    p.connections = 64;
    p.credits = 16;
    p.warmup_ops = quick ? 100 : 300;
    p.measure_ops = quick ? 500 : 3000;
    p.seed = 3;

    Table t({"mode", "conns", "cycles/op", "avg burst"});
    bench::JsonWriter json("migration_compat", args.threads);
    for (const dma::ProtectionMode mode : bench::evaluatedModes()) {
        sys::ClusterConfig cfg;
        cfg.machines = 2;
        cfg.threads = args.threads;
        cfg.mode = mode;
        cfg.max_qps = workloads::fleetMaxQps(p, 2);
        cfg.migration = false; // the subsystem under inertness test
        sys::Cluster cluster(cfg);
        const workloads::FleetReport rep =
            workloads::runFleet(cluster, p);
        RIO_ASSERT(rep.leaks_clean && rep.comp_errors == 0 &&
                       rep.remote_faults == 0,
                   "compat row must match the lossless fabric at ",
                   dma::modeName(mode));
        const double hitrate =
            rep.rdcache.fetches
                ? 100.0 * static_cast<double>(rep.rdcache.hot_hits) /
                      static_cast<double>(rep.rdcache.fetches)
                : 0.0;
        t.addRow(dma::modeName(mode),
                 {static_cast<double>(p.connections),
                  rep.cycles_per_op, rep.avg_burst},
                 2);
        json.beginRow();
        json.add("mode", dma::modeName(mode));
        json.add("variant", "base");
        json.add("connections", static_cast<u64>(p.connections));
        json.add("cycles_per_op", rep.cycles_per_op);
        json.add("avg_burst", rep.avg_burst);
        json.add("measured_ops", rep.measured_ops);
        json.add("completions", rep.completions);
        json.add("posts_blocked", rep.posts_blocked);
        json.add("eob_unmaps", rep.eob_unmaps);
        json.add("riotlb_invalidations", rep.riotlb.invalidations);
        json.add("riotlb_walks", rep.riotlb.walks);
        json.add("rdcache_fetches", rep.rdcache.fetches);
        json.add("rdcache_hot_hits", rep.rdcache.hot_hits);
        json.add("rdcache_hit_rate", hitrate);
    }
    std::printf("%s\n", t.toString().c_str());
    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}

u64
pctNs(std::vector<u64> v, double q)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    size_t idx = static_cast<size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n))));
    return v[std::min(idx, n) - 1];
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::runScale() < 1.0;
    double loss = -1.0;
    u64 pages_override = 0;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--quick", [&](int &) { quick = true; }},
         {"--loss",
          [&](int &i) { loss = bench::flagValue(argc, argv, i, 0.0, 1.0); }},
         {"--pages", [&](int &i) {
              pages_override = bench::flagValue<u64>(argc, argv, i, 64);
          }}});
    if (loss == 0.0)
        return runCompat(args, quick);

    const u64 P = pages_override ? pages_override : (quick ? 4096 : 8192);
    const double armed_loss = loss > 0.0 ? loss : 0.02;
    const double base_dirty = 50.0;

    bench::printHeader(strprintf(
        "Live migration: %llu-page guest, dirty x loss x platform x "
        "mode — rounds, freight, blackout, strays",
        static_cast<unsigned long long>(P)));

    Table t({"mode/platform", "dirty", "loss", "pages", "qps", "rounds",
             "shipped", "reship", "state KB", "rings", "blackout us",
             "total ms", "stray flt", "stray land"});
    bench::JsonWriter json("migration", args.threads);

    // ---- base sweep: every platform x every mode, moderate dirt ----
    struct Key
    {
        std::string mode;
        virt::Platform platform;
        MigOut out;
    };
    std::vector<Key> base;
    for (const virt::Platform plat : virt::kAllPlatforms) {
        for (const dma::ProtectionMode mode : bench::evaluatedModes()) {
            MigRun r;
            r.mode = mode;
            r.platform = plat;
            r.dirty = base_dirty;
            r.pages = P;
            r.threads = args.threads;
            const MigOut o = runMigration(r);
            tableRow(t, r, o);
            jsonRow(json, "migrate", r, o);

            const std::string_view n(dma::modeName(mode));
            RIO_ASSERT(o.stray_arrivals > 0,
                       "no stray ever reached the migrated-away "
                       "ledger at ", n, "/", virt::platformName(plat));
            if (isProtectedMode(n)) {
                RIO_ASSERT(o.stray_landed == 0, n,
                           " must stop every post-migration stray, "
                           "but ", o.stray_landed, " landed");
                RIO_ASSERT(o.stray_faulted > 0,
                           "protected mode never faulted a stray");
            }
            if (n == "none") {
                RIO_ASSERT(o.stray_faulted == 0,
                           "mode none cannot fault, but ",
                           o.stray_faulted, " strays faulted");
                RIO_ASSERT(o.stray_landed > 0,
                           "mode none should land strays");
            }
            if (dma::modeUsesRiommu(mode) &&
                (plat == virt::Platform::kEmulated ||
                 plat == virt::Platform::kNested)) {
                RIO_ASSERT(o.rep.reg_hypercalls == o.rep.live_rings &&
                               o.rep.live_rings > 0,
                           "rIOMMU state transfer must be one "
                           "hypercall per live ring");
            }
            base.push_back({std::string(n), plat, o});
        }
        t.addSeparator();
    }

    // The per-platform blackout ordering, on the representative
    // baseline mode: shadow (only what is mapped) < nested (stage-2
    // for the whole arena) < emulated (per-mapping exit replay).
    const auto find = [&base](const char *m, virt::Platform p) -> const MigOut & {
        for (const Key &k : base)
            if (k.mode == m && k.platform == p)
                return k.out;
        RIO_PANIC("missing base point");
    };
    {
        const MigOut &sh = find("strict", virt::Platform::kShadow);
        const MigOut &ne = find("strict", virt::Platform::kNested);
        const MigOut &em = find("strict", virt::Platform::kEmulated);
        RIO_ASSERT(sh.rep.state_bytes < ne.rep.state_bytes,
                   "shadow must ship less state than nested: ",
                   sh.rep.state_bytes, " vs ", ne.rep.state_bytes);
        RIO_ASSERT(sh.rep.blackout_ns < ne.rep.blackout_ns,
                   "shadow blackout (", sh.rep.blackout_ns,
                   " ns) not under nested (", ne.rep.blackout_ns, ")");
        RIO_ASSERT(ne.rep.blackout_ns < em.rep.blackout_ns,
                   "nested blackout (", ne.rep.blackout_ns,
                   " ns) not under emulated (", em.rep.blackout_ns,
                   ")");
    }

    // ---- rIOMMU scaling: blackout ~ rings, flat in memory ----------
    const auto scaled_run = [&](dma::ProtectionMode mode, unsigned qps,
                                u64 pages) {
        MigRun r;
        r.mode = mode;
        r.platform = virt::Platform::kNested;
        r.dirty = 0.0; // clean scaling: state transfer only
        r.pages = pages;
        r.app_qps = qps;
        r.threads = args.threads;
        r.strays = false;
        const MigOut o = runMigration(r);
        tableRow(t, r, o);
        jsonRow(json, "scaling", r, o);
        return o;
    };
    const MigOut rq4 = scaled_run(dma::ProtectionMode::kRiommu, 4, P);
    const MigOut rq12 = scaled_run(dma::ProtectionMode::kRiommu, 12, P);
    const MigOut rp4 = scaled_run(dma::ProtectionMode::kRiommu, 4, 4 * P);
    const MigOut sp1 = scaled_run(dma::ProtectionMode::kStrict, 4, P);
    const MigOut sp4 = scaled_run(dma::ProtectionMode::kStrict, 4, 4 * P);
    t.addSeparator();
    RIO_ASSERT(rq12.rep.live_rings == rq4.rep.live_rings + 16,
               "ring count must track QP count: ", rq4.rep.live_rings,
               " -> ", rq12.rep.live_rings);
    RIO_ASSERT(rq12.rep.blackout_ns > rq4.rep.blackout_ns,
               "rIOMMU blackout must grow with live rings: ",
               rq4.rep.blackout_ns, " -> ", rq12.rep.blackout_ns);
    RIO_ASSERT(static_cast<double>(rp4.rep.blackout_ns) <=
                   1.10 * static_cast<double>(rq4.rep.blackout_ns),
               "rIOMMU blackout must stay flat in guest memory: ",
               rq4.rep.blackout_ns, " ns at ", P, " pages vs ",
               rp4.rep.blackout_ns, " ns at ", 4 * P);
    RIO_ASSERT(static_cast<double>(sp4.rep.blackout_ns) >
                   1.30 * static_cast<double>(sp1.rep.blackout_ns),
               "nested baseline blackout must be memory-proportional: ",
               sp1.rep.blackout_ns, " -> ", sp4.rep.blackout_ns);

    // ---- dirty-rate pressure: the round cap earns its keep ---------
    for (const dma::ProtectionMode mode :
         {dma::ProtectionMode::kRiommu, dma::ProtectionMode::kStrict}) {
        MigRun r;
        r.mode = mode;
        r.platform = virt::Platform::kNested;
        r.dirty = 800.0;
        r.pages = P;
        r.threads = args.threads;
        const MigOut o = runMigration(r);
        tableRow(t, r, o);
        jsonRow(json, "dirty", r, o);
        RIO_ASSERT(o.rep.rounds > 1 && o.rep.pages_reshipped > 0,
                   "a hot dirtier must force extra pre-copy rounds");
    }
    t.addSeparator();

    // ---- hostile wire: loss on the migration stream ----------------
    for (const dma::ProtectionMode mode :
         {dma::ProtectionMode::kRiommu, dma::ProtectionMode::kStrict}) {
        MigRun r;
        r.mode = mode;
        r.platform = virt::Platform::kNested;
        r.dirty = base_dirty;
        r.loss = armed_loss;
        r.pages = P;
        r.threads = args.threads;
        const MigOut o = runMigration(r);
        tableRow(t, r, o);
        jsonRow(json, "loss", r, o);
    }

    std::printf("%s\n", t.toString().c_str());

    // ---- --slo: blackout percentiles over dirtier seeds ------------
    if (args.slo) {
        bench::printHeader(
            "Blackout tail over 5 dirtier seeds (p50/p99, ns)");
        Table st({"mode/platform", "p50 us", "p99 us"});
        for (const virt::Platform plat : virt::kAllPlatforms) {
            for (const dma::ProtectionMode mode :
                 {dma::ProtectionMode::kRiommu,
                  dma::ProtectionMode::kStrict}) {
                std::vector<u64> blk;
                for (u64 seed = 1; seed <= 5; ++seed) {
                    MigRun r;
                    r.mode = mode;
                    r.platform = plat;
                    r.dirty = base_dirty;
                    r.pages = P;
                    r.threads = args.threads;
                    r.dirty_seed = seed;
                    blk.push_back(static_cast<u64>(
                        runMigration(r).rep.blackout_ns));
                }
                const u64 p50 = pctNs(blk, 0.50);
                const u64 p99 = pctNs(blk, 0.99);
                st.addRow(strprintf("%s/%s", dma::modeName(mode),
                                    virt::platformName(plat)),
                          {static_cast<double>(p50) / 1e3,
                           static_cast<double>(p99) / 1e3},
                          2);
                json.beginRow();
                json.add("variant", "slo");
                json.add("mode", dma::modeName(mode));
                json.add("platform", virt::platformName(plat));
                json.add("blackout_p50_ns", p50);
                json.add("blackout_p99_ns", p99);
            }
        }
        std::printf("%s\n", st.toString().c_str());
    }

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
