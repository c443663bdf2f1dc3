/**
 * @file
 * The benchmark's workloads. Each one is a closed batch job in
 * simulated time, driven only through the simulator's public entry
 * points, and each checks its own outputs (Rep::check).
 */
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "bench.h"
#include "cycles/cycle_account.h"
#include "des/parallel.h"
#include "migrate/migrate.h"
#include "net/packet.h"
#include "obs/registry.h"
#include "sys/cluster.h"
#include "virt/guest.h"
#include "workloads/fleet.h"
#include "workloads/stream.h"

namespace perfbench {

namespace {

using namespace rio;
using dma::ProtectionMode;

static_assert(std::size(kCatSlugs) == cycles::kNumCats,
              "one metric name per cycles::Cat");

/** The two modes every workload reports end to end. */
constexpr ProtectionMode kHeadlineModes[] = {ProtectionMode::kRiommu,
                                             ProtectionMode::kStrict};

/**
 * Figure 7's published C/C_none ratios (paper §5.1; the same numbers
 * bench_fig7_cycles_per_packet prints), for the six modes other than
 * the calibrated none mode.
 */
struct PaperRatio
{
    ProtectionMode mode;
    double ratio;
};
constexpr PaperRatio kFig7Ratios[] = {
    {ProtectionMode::kStrict, 9.4},     {ProtectionMode::kStrictPlus, 5.2},
    {ProtectionMode::kDefer, 4.7},      {ProtectionMode::kDeferPlus, 3.2},
    {ProtectionMode::kRiommuNc, 1.9}, {ProtectionMode::kRiommu, 1.3}};

/** Random streams derived from the run seed. */
enum SeedStream : u64 { kFleetStream = 1, kWireStream, kDirtyStream };

bool
isHeadline(ProtectionMode mode)
{
    return mode == ProtectionMode::kRiommu || mode == ProtectionMode::kStrict;
}

/** Per-op cycles of each Cat into cycles.<mode>.<cat>. */
void
addCatBreakdown(Rep &rep, ProtectionMode mode,
                const std::array<double, cycles::kNumCats> &cat_cycles,
                double ops)
{
    for (unsigned c = 0; c < cycles::kNumCats; ++c)
        rep.modelled["cycles." + modeSlug(mode) + "." + kCatSlugs[c]] =
            ops > 0 ? cat_cycles[c] / ops : 0.0;
}

void
addCount(Rep &rep, const std::string &name, double v)
{
    rep.modelled[name] += v;
}

/** Read the obs registry's per-layer counters after a repetition. */
void
readRegistry(Rep &rep, Tracer &tr)
{
    {
        auto s = tr.scope("obs.snapshot");
        (void)obs::registry().snapshot(); // flushes deferred metrics
    }
    for (const auto &e : obs::registry().metrics()) {
        std::string mode;
        for (const auto &[k, v] : e->labels)
            if (k == "mode")
                mode = v;
        if (e->type == obs::MetricEntry::Type::kHistogram) {
            const obs::Histogram &h = *e->histogram;
            if (e->name == "qi.sync_cycles")
                addCount(rep, "qi.syncs", static_cast<double>(h.count()));
            for (const ProtectionMode m : kHeadlineModes) {
                if (mode != dma::modeName(m))
                    continue;
                const std::string key = "dma." + modeSlug(m);
                if (e->name == "dma.map_cycles")
                    rep.modelled[key + ".map_cycles"] = h.avg();
                if (e->name == "dma.unmap_cycles")
                    rep.modelled[key + ".unmap_cycles"] = h.avg();
            }
        } else if (e->type == obs::MetricEntry::Type::kCounter) {
            const double v = static_cast<double>(e->counter->get());
            if (e->name == "iotlb.hits" || e->name == "iotlb.misses" ||
                e->name == "riotlb.implicit_invalidations")
                addCount(rep, e->name, v);
        } else if (e->name == "nic.tx_ring_occupancy") {
            rep.modelled["nic.tx_ring_occupancy"] =
                static_cast<double>(e->gauge->high.load());
        }
    }
    const double hits = rep.modelled["iotlb.hits"];
    const double misses = rep.modelled["iotlb.misses"];
    rep.modelled["iotlb.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

/** Engine counters of one finished run. */
void
addEngine(Rep &rep, des::ParallelEngine &eng)
{
    addCount(rep, "des.events", static_cast<double>(eng.eventsRun()));
    addCount(rep, "des.windows", static_cast<double>(eng.rounds()));
    addCount(rep, "des.mail", static_cast<double>(eng.messagesDelivered()));
}

/** Ratios that derive from summed counters; call once per repetition. */
void
finishDerived(Rep &rep)
{
    const double windows = rep.modelled["des.windows"];
    rep.modelled["des.events_per_window"] =
        windows > 0 ? rep.modelled["des.events"] / windows : 0.0;
    const double walks = rep.modelled["iommu.walks"];
    rep.modelled["iommu.walk_refs_per_walk"] =
        walks > 0 ? rep.modelled["virt.walk_refs"] / walks : 0.0;
    rep.modelled.erase("iommu.walks");
}

/** IOMMU + rIOMMU walk counters of one machine. */
void
addWalks(Rep &rep, sys::Machine &m)
{
    addCount(rep, "iommu.walks",
             static_cast<double>(m.ctx().iommu().walkCount() +
                                 m.ctx().riommu().riotlb().stats().walks));
    addCount(rep, "virt.walk_refs",
             static_cast<double>(m.ctx().iommu().walkMemRefs() +
                                 m.ctx().riommu().walkMemRefs()));
}

// ---- probe shape ------------------------------------------------------------

/** Virtual time between two samples of a handle's live mappings. */
constexpr rio::Nanos kShapeSampleNs = 20000;
/** At most this many samples per handle, so a sampler can never keep a
 * stalled simulation from going idle. */
constexpr u64 kMaxShapeSamples = 100000;

/**
 * Samples a DMA handle's live mappings on its machine's lane every
 * kShapeSampleNs of virtual time while active() holds, averaging the
 * samples taken while record() holds. This is how the probes learn how
 * many mappings the workload really keeps live. The sampler only
 * reads, so the modelled results are unchanged; its events are taken
 * back out of des.events.
 */
struct LiveSampler
{
    des::Simulator *sim = nullptr;
    const dma::DmaHandle *handle = nullptr;
    std::function<bool()> active;
    std::function<bool()> record;
    u64 events = 0;
    u64 samples = 0;
    u64 sum = 0;

    double
    mean() const
    {
        return samples ? static_cast<double>(sum) / samples : 0.0;
    }
};

void
sampleLive(const std::shared_ptr<LiveSampler> &s)
{
    ++s->events;
    if (!s->active() || s->events > kMaxShapeSamples)
        return;
    if (s->record()) {
        s->sum += s->handle->liveMappings();
        ++s->samples;
    }
    s->sim->scheduleAfter(kShapeSampleNs, [s] { sampleLive(s); });
}

std::shared_ptr<LiveSampler>
startSampler(des::Lane &lane, const dma::DmaHandle &handle,
             std::function<bool()> active, std::function<bool()> record)
{
    auto s = std::make_shared<LiveSampler>();
    s->sim = &lane.sim();
    s->handle = &handle;
    s->active = std::move(active);
    s->record = std::move(record);
    s->sim->scheduleAfter(kShapeSampleNs, [s] { sampleLive(s); });
    return s;
}

// ---- stream7 --------------------------------------------------------------

Rep
runStream7(u64 /*seed*/, Size size, Tracer &tr)
{
    // The Figure 7 stream draws no random numbers: every seed runs the
    // paper's experiment unchanged, which is what lets its cycles/op
    // match bench_fig7_cycles_per_packet exactly.
    auto root = tr.scope("workloads.stream7");
    obs::registry().resetValues();
    Rep rep;
    const nic::NicProfile &prof = nic::mlxProfile();
    workloads::StreamParams params = workloads::streamParamsFor(prof);
    params.measure_packets = size == Size::kFull ? 40000 : 2000;
    params.warmup_packets = size == Size::kFull ? 10000 : 500;

    const double t0 = wallNow();
    std::unique_ptr<des::ParallelEngine> eng;
    {
        auto s = tr.scope("des.ParallelEngine");
        eng = std::make_unique<des::ParallelEngine>(1);
    }
    std::vector<std::unique_ptr<workloads::StreamRun>> runs;
    for (const ProtectionMode mode : dma::kEvaluatedModes) {
        des::Lane &lane = eng->addLane();
        auto s = tr.scope("workloads.StreamRun");
        runs.push_back(std::make_unique<workloads::StreamRun>(
            lane.sim(), mode, prof, params));
    }
    rep.setup_s = wallNow() - t0;

    const double w0 = wallNow();
    const double c0 = cpuNow();
    {
        auto s = tr.scope("des.run");
        eng->run();
    }
    std::vector<workloads::RunResult> res;
    for (auto &run : runs) {
        auto s = tr.scope("workloads.collect");
        res.push_back(run->collect());
    }
    rep.run_cpu_s = cpuNow() - c0;
    rep.run_wall_s = wallNow() - w0;

    addEngine(rep, *eng);
    double c_none = 0;
    double walk_refs = 0;
    double walks = 0;
    for (size_t i = 0; i < res.size(); ++i) {
        const ProtectionMode mode = dma::kEvaluatedModes[i];
        const workloads::RunResult &r = res[i];
        rep.check(r.tx_packets >= params.measure_packets,
                  std::string("stream lane ") + dma::modeName(mode) +
                      " missed its packet target");
        rep.check(r.fault.faults_seen == 0,
                  std::string("unexpected DMA faults at ") +
                      dma::modeName(mode));
        rep.sim_ops += r.tx_packets;
        rep.attempted += r.tx_packets;
        if (mode == ProtectionMode::kNone)
            c_none = r.cycles_per_packet;
        if (isHeadline(mode)) {
            rep.modelled[modeSlug(mode) + ".cycles_per_op"] =
                r.cycles_per_packet;
            std::array<double, cycles::kNumCats> cats{};
            for (unsigned c = 0; c < cycles::kNumCats; ++c)
                cats[c] = static_cast<double>(
                    r.acct.get(static_cast<cycles::Cat>(c)));
            addCatBreakdown(rep, mode, cats,
                            static_cast<double>(r.tx_packets));
        } else {
            rep.modelled["cycles_per_op." + modeSlug(mode)] =
                r.cycles_per_packet;
        }
        if (mode == ProtectionMode::kRiommu)
            rep.modelled["nic.avg_unmap_burst"] = r.avg_unmap_burst;
        addCount(rep, "virt.vm_exits", static_cast<double>(r.vm_exits));
        walks += static_cast<double>(r.walks);
        walk_refs += static_cast<double>(r.walk_mem_refs);
    }
    rep.modelled["iommu.walks"] = walks;
    rep.modelled["virt.walk_refs"] = walk_refs;

    double err = 0;
    for (const PaperRatio &p : kFig7Ratios) {
        const size_t i = static_cast<size_t>(
            std::find(dma::kEvaluatedModes.begin(),
                      dma::kEvaluatedModes.end(), p.mode) -
            dma::kEvaluatedModes.begin());
        err += std::fabs(res[i].cycles_per_packet / c_none - p.ratio) /
               p.ratio;
    }
    rep.modelled["model_err_pct"] = 100.0 * err / std::size(kFig7Ratios);

    readRegistry(rep, tr);
    finishDerived(rep);

    rep.shape.ring_sizes = prof.riommuRingSizes();
    rep.shape.live = prof.rxLiveMappings() +
                     static_cast<u64>(rep.modelled["nic.tx_ring_occupancy"]);
    rep.shape.burst = static_cast<u32>(
        std::max(1.0, std::round(rep.modelled["nic.avg_unmap_burst"])));
    rep.shape.bytes = net::kMtu;
    return rep;
}

// ---- fleet_lossy (timed at 1 thread, checked on the engine pool) ---------

Rep
runFleetWith(u64 seed, Size size, Tracer &tr, unsigned threads)
{
    auto root = tr.scope("workloads.fleet");
    obs::registry().resetValues();
    Rep rep;
    workloads::FleetParams p;
    p.connections = 256;
    p.credits = 16;
    p.warmup_ops = size == Size::kFull ? 500 : 50;
    p.measure_ops = size == Size::kFull ? 6000 : 200;
    p.incast_period_ops = 50;
    p.incast_burst = 12;
    p.seed = deriveSeed(seed, kFleetStream);
    const unsigned machines = 3;

    for (const ProtectionMode mode : kHeadlineModes) {
        sys::ClusterConfig cfg;
        cfg.machines = machines;
        cfg.threads = threads;
        cfg.mode = mode;
        cfg.max_qps = workloads::fleetMaxQps(p, machines);
        cfg.rdcache.model_fetch = true;
        cfg.rdcache.hot_entries = 512;
        // The wire-storm recipe at 2% loss: duplicates and stragglers
        // ride above the drop rate; a bounded ingress port for incast.
        cfg.wire.drop_rate = 0.02;
        cfg.wire.dup_rate = 0.06;
        cfg.wire.delay_rate = 0.2;
        cfg.wire.delay_max_ns = 60000;
        cfg.wire.ingress_cap = 16;
        cfg.wire.seed = deriveSeed(seed, kWireStream);
        cfg.reliability.enabled = true;

        const double t0 = wallNow();
        std::unique_ptr<sys::Cluster> cl;
        {
            auto s = tr.scope("sys.Cluster");
            cl = std::make_unique<sys::Cluster>(cfg);
        }
        rep.setup_s += wallNow() - t0;

        // Each machine's live mappings, sampled inside its measurement
        // window, until it has completed all of its ops.
        std::vector<std::shared_ptr<LiveSampler>> samplers;
        for (unsigned m = 0; m < machines; ++m) {
            const rdma::RdmaNic *nic = &cl->nic(m);
            samplers.push_back(startSampler(
                cl->lane(m), cl->handle(m),
                [nic, &p] {
                    return nic->stats().completions <
                           p.warmup_ops + p.measure_ops;
                },
                [nic, &p] {
                    return nic->stats().completions >= p.warmup_ops;
                }));
        }

        const double w0 = wallNow();
        const double c0 = cpuNow();
        workloads::FleetReport fr;
        {
            auto s = tr.scope("workloads.runFleet");
            fr = workloads::runFleet(*cl, p);
        }
        rep.run_cpu_s += cpuNow() - c0;
        rep.run_wall_s += wallNow() - w0;

        const std::string name = dma::modeName(mode);
        rep.check(fr.completions == fr.posts,
                  "CQE conservation broke at " + name);
        rep.check(fr.slo_valid && fr.slo.dropped == 0 &&
                      fr.slo.count == fr.completions,
                  "SLO records do not cover every completion at " + name);
        rep.check(fr.leaks_clean, "leaked mappings at " + name);
        rep.check(fr.late_landed == 0,
                  "a late arrival landed in protected mode " + name);
        rep.sim_ops += fr.completions;
        rep.attempted += fr.posts;
        rep.op_errors += fr.comp_errors;

        const std::string slug = modeSlug(mode);
        rep.modelled[slug + ".cycles_per_op"] = fr.cycles_per_op;
        rep.modelled[slug + ".p99_us"] =
            static_cast<double>(fr.slo.p99) / 1e3;
        std::array<double, cycles::kNumCats> cats{};
        for (unsigned c = 0; c < cycles::kNumCats; ++c)
            cats[c] = static_cast<double>(fr.slo.all_cat_cycles[c]);
        addCatBreakdown(rep, mode, cats, static_cast<double>(fr.slo.count));

        addEngine(rep, cl->engine());
        double live = 0;
        for (unsigned m = 0; m < machines; ++m) {
            addWalks(rep, cl->machine(m));
            addCount(rep, "des.events",
                     -static_cast<double>(samplers[m]->events));
            live += samplers[m]->mean() / machines;
        }
        addCount(rep, "wire.drops", static_cast<double>(fr.wire_drops));
        addCount(rep, "wire.dups", static_cast<double>(fr.wire_dups));
        addCount(rep, "wire.congestion_drops",
                 static_cast<double>(fr.wire_congestion_drops));
        addCount(rep, "wire.peak_queue",
                 static_cast<double>(fr.wire_peak_queue));
        addCount(rep, "rdma.posts", static_cast<double>(fr.posts));
        addCount(rep, "rdma.posts_blocked",
                 static_cast<double>(fr.posts_blocked));
        addCount(rep, "rdma.completions", static_cast<double>(fr.completions));
        addCount(rep, "rdma.retransmits", static_cast<double>(fr.retransmits));
        addCount(rep, "rdma.rto_fires", static_cast<double>(fr.rto_fires));
        addCount(rep, "rdma.qp_errors", static_cast<double>(fr.qp_errors));
        if (mode == ProtectionMode::kRiommu) {
            // Probe shape: the measured live mappings per handle, the
            // mean write size and the completions per end-of-burst
            // invalidation.
            rep.shape.live = static_cast<u64>(std::llround(live));
            rep.shape.burst = static_cast<u32>(
                std::max(1.0, std::round(fr.avg_burst)));
            const u64 writes = cl->total(&rdma::RdmaStats::writes_sent);
            rep.shape.bytes =
                static_cast<u32>(cl->total(&rdma::RdmaStats::bytes_sent) /
                                 std::max<u64>(writes, 1));
            rep.modelled["rdma.avg_burst"] = fr.avg_burst;
            rep.modelled["rdma.p50_us"] =
                static_cast<double>(fr.slo.p50) / 1e3;
            rep.modelled["rdcache.hot_hit_ratio"] =
                fr.rdcache.fetches
                    ? static_cast<double>(fr.rdcache.hot_hits) /
                          static_cast<double>(fr.rdcache.fetches)
                    : 0.0;
            rep.shape.ring_sizes = rdma::ringSizes(cfg.profile, cfg.max_qps);
        }
    }
    readRegistry(rep, tr);
    finishDerived(rep);
    return rep;
}

Rep
runFleetLossy(u64 seed, Size size, Tracer &tr)
{
    return runFleetWith(seed, size, tr, 1);
}

Rep
runFleetPool(u64 seed, Size size, Tracer &tr)
{
    return runFleetWith(seed, size, tr, poolThreads());
}

// ---- migrate_nested -------------------------------------------------------

/** Stray peer: machine 1 keeps posting writes at the guest's old QP on
 * machine 0 before and after the migration (bench_migration's recipe:
 * fixed gap, zero RNG draws). */
constexpr rio::Nanos kStrayGapNs = 8000;
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
    s->cl->lane(1).sim().scheduleAfter(kStrayGapNs, [s] { strayTick(s); });
}

Rep
runMigrateNested(u64 seed, Size size, Tracer &tr)
{
    auto root = tr.scope("workloads.migrate_nested");
    obs::registry().resetValues();
    Rep rep;
    const u64 pages = size == Size::kFull ? 4096 : 256;
    const unsigned app_qps = 8;

    for (const ProtectionMode mode : kHeadlineModes) {
        const std::string name = dma::modeName(mode);
        const double t0 = wallNow();
        sys::ClusterConfig cfg;
        cfg.machines = 2;
        cfg.mode = mode;
        cfg.max_qps = app_qps + 4;
        cfg.migration = true;
        cfg.reliability.enabled = true;
        cfg.wire.drop_rate = 0.02;
        cfg.wire.dup_rate = 0.06;
        cfg.wire.delay_rate = 0.2;
        cfg.wire.delay_max_ns = 60000;
        cfg.wire.seed = deriveSeed(seed, kWireStream);
        std::unique_ptr<sys::Cluster> cl;
        {
            auto s = tr.scope("sys.Cluster");
            cl = std::make_unique<sys::Cluster>(cfg);
        }
        std::unique_ptr<virt::Guest> sg, dg;
        unsigned src_binding = 0;
        {
            auto s = tr.scope("virt.Guest");
            sg = std::make_unique<virt::Guest>(cl->machine(0),
                                               virt::Platform::kNested);
            dg = std::make_unique<virt::Guest>(cl->machine(1),
                                               virt::Platform::kNested);
            src_binding =
                sg->bindHandle(cl->handle(0), cl->machine(0).core(0));
            (void)dg->bindHandle(cl->handle(1), cl->machine(1).core(0));
        }
        {
            auto s = tr.scope("sys.bringUp");
            cl->bringUp();
        }
        // The guest's data-plane QPs (the live rings) and the stray
        // peer's reverse QP.
        auto stray = std::make_shared<Stray>();
        stray->cl = cl.get();
        unsigned connected = 0;
        sys::Cluster &c = *cl;
        c.machine(0).core(0).post([&] {
            for (unsigned q = 0; q < app_qps; ++q)
                (void)c.nic(0).connect(1, [&connected](u32, bool ok) {
                    connected += ok ? 1 : 0;
                });
        });
        c.machine(1).core(0).post([&c, stray] {
            (void)c.nic(1).connect(0, [stray](u32 qp, bool ok) {
                stray->qp = qp;
                stray->connected = ok;
            });
        });
        {
            auto s = tr.scope("des.run");
            c.run();
        }
        rep.check(connected == app_qps && stray->connected,
                  "QP set-up failed at " + name);

        migrate::MigrateConfig mc;
        mc.platform = virt::Platform::kNested;
        mc.guest_pages = pages;
        mc.dirty_pages_per_ms = 50.0;
        mc.dirty_seed = deriveSeed(seed, kDirtyStream);
        mc.converge_dirty = 16;
        std::unique_ptr<migrate::Migrator> mig;
        {
            auto s = tr.scope("migrate.Migrator");
            mig = std::make_unique<migrate::Migrator>(c, mc);
            mig->setGuests(sg.get(), dg.get(), src_binding);
        }
        {
            auto s = tr.scope("migrate.start");
            mig->start();
        }
        stray->remaining = pages * 8;
        c.lane(1).sim().scheduleAfter(kStrayGapNs,
                                      [stray] { strayTick(stray); });
        // The bulk page writes' live mappings on the source's
        // hypervisor NIC, for the probe shape.
        const migrate::Migrator *migp = mig.get();
        const auto sampler = startSampler(
            c.lane(0), c.migHandle(0), [migp] { return !migp->done(); },
            [] { return true; });
        rep.setup_s += wallNow() - t0;

        // The timed run is the migration itself; the checks and the
        // teardown after it are not timed.
        const double w0 = wallNow();
        const double c0 = cpuNow();
        {
            auto s = tr.scope("des.run");
            c.run();
        }
        rep.run_cpu_s += cpuNow() - c0;
        rep.run_wall_s += wallNow() - w0;

        const migrate::MigrationReport mr = mig->report();
        const bool hash_ok = mig->arenaHash(false) == mig->arenaHash(true);
        {
            auto s = tr.scope("migrate.cleanup");
            mig->cleanup();
        }
        {
            auto s = tr.scope("sys.quiesce");
            c.quiesce();
        }
        bool leaks_clean = true;
        {
            auto s = tr.scope("sys.checkLeaks");
            for (unsigned m = 0; m < 2; ++m)
                leaks_clean = leaks_clean && c.checkLeaks(m).clean() &&
                              c.checkMigLeaks(m).clean();
        }

        rep.check(mr.completed && !mr.failed,
                  "migration did not complete at " + name);
        rep.check(hash_ok, "guest RAM diverged after migration at " + name);
        rep.check(leaks_clean, "leaked mappings after migration at " + name);
        rep.check(c.migTotal(&rdma::RdmaStats::completions) ==
                      c.migTotal(&rdma::RdmaStats::posts),
                  "migration stream CQE conservation broke at " + name);
        rep.check(c.nic(0).stats().migrated_away_landed == 0,
                  "a post-migration stray landed in protected mode " + name);
        rep.sim_ops += mr.pages_shipped;
        rep.attempted += mr.pages_shipped;
        rep.op_errors += mr.page_naks;

        double core_cycles = 0;
        std::array<double, cycles::kNumCats> cats{};
        for (unsigned m = 0; m < 2; ++m) {
            sys::Machine &mach = c.machine(m);
            for (unsigned k = 0; k < mach.numCores(); ++k)
                for (unsigned cat = 0; cat < cycles::kNumCats; ++cat) {
                    const double v = static_cast<double>(
                        mach.acct(k).get(static_cast<cycles::Cat>(cat)));
                    cats[cat] += v;
                    core_cycles += v;
                }
            addWalks(rep, mach);
        }
        const std::string slug = modeSlug(mode);
        const double shipped = static_cast<double>(mr.pages_shipped);
        rep.modelled[slug + ".cycles_per_op"] =
            shipped > 0 ? core_cycles / shipped : 0.0;
        rep.modelled[slug + ".blackout_us"] =
            static_cast<double>(mr.blackout_ns) / 1e3;
        addCatBreakdown(rep, mode, cats, shipped);

        addEngine(rep, c.engine());
        addCount(rep, "des.events", -static_cast<double>(sampler->events));
        addCount(rep, "virt.vm_exits",
                 static_cast<double>(sg->stats().vm_exits +
                                     dg->stats().vm_exits));
        addCount(rep, "migrate.rounds", mr.rounds);
        addCount(rep, "migrate.pages_shipped", shipped);
        addCount(rep, "migrate.pages_reshipped",
                 static_cast<double>(mr.pages_reshipped));
        addCount(rep, "migrate.state_bytes",
                 static_cast<double>(mr.state_bytes));
        addCount(rep, "migrate.live_rings",
                 static_cast<double>(mr.live_rings));
        addCount(rep, "migrate.total_us",
                 static_cast<double>(mr.total_ns) / 1e3);
        using WS = sys::WireStats;
        for (auto field : {std::pair{"wire.drops", &WS::drops},
                           std::pair{"wire.dups", &WS::dups},
                           std::pair{"wire.congestion_drops",
                                     &WS::congestion_drops},
                           std::pair{"wire.peak_queue", &WS::peak_queue}})
            addCount(rep, field.first,
                     static_cast<double>(c.wireTotal(field.second)));
        using RS = rdma::RdmaStats;
        for (auto field : {std::pair{"rdma.posts", &RS::posts},
                           std::pair{"rdma.posts_blocked", &RS::posts_blocked},
                           std::pair{"rdma.completions", &RS::completions},
                           std::pair{"rdma.retransmits", &RS::retransmits},
                           std::pair{"rdma.rto_fires", &RS::rto_fires},
                           std::pair{"rdma.qp_errors", &RS::qp_errors}})
            addCount(rep, field.first,
                     static_cast<double>(c.total(field.second) +
                                         c.migTotal(field.second)));
        if (mode == ProtectionMode::kRiommu) {
            // Probe shape: the source hypervisor NIC's rings, measured
            // live mappings, mean write size and completions per
            // end-of-burst invalidation.
            rep.shape.ring_sizes = rdma::ringSizes(cfg.profile, cfg.mig_qps);
            rep.shape.live = static_cast<u64>(std::llround(sampler->mean()));
            const u64 eob = c.migTotal(&rdma::RdmaStats::eob_unmaps);
            rep.shape.burst = static_cast<u32>(std::max(
                1.0, std::round(static_cast<double>(c.migTotal(
                                    &rdma::RdmaStats::completions)) /
                                static_cast<double>(std::max<u64>(eob, 1)))));
            rep.shape.bytes = static_cast<u32>(
                c.migTotal(&rdma::RdmaStats::mig_bytes_sent) /
                std::max<u64>(c.migTotal(&rdma::RdmaStats::posts), 1));
        }

        // Tear down in dependency order: the migrator and guests hold
        // references into the cluster.
        mig.reset();
        sg.reset();
        dg.reset();
    }
    readRegistry(rep, tr);
    finishDerived(rep);
    return rep;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"stream7", runStream7},
        {"fleet_lossy", runFleetLossy, runFleetPool},
        {"migrate_nested", runMigrateNested},
    };
    return table;
}

} // namespace perfbench
