/**
 * @file
 * Randomized checking in two layers. The oracle campaigns cross-check
 * the translation hardware against simple reference models: thousands
 * of random map/unmap/access operations where every translate()
 * outcome (address AND fault-or-not) must agree with an oracle built
 * from plain maps. The system campaigns compose hazards over the three
 * drivers — a machine, an RDMA fleet and a live migration — and judge
 * every run by the driver's invariant suite.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "dma/baseline_handle.h"
#include "dma/dma_context.h"
#include "migrate/migrate.h"
#include "riommu/rdevice.h"
#include "sys/cluster.h"
#include "sys/machine.h"
#include "virt/guest.h"
#include "workloads/fleet.h"
#include "workloads/migration.h"

namespace rio {
namespace {

using iommu::Access;
using iommu::Bdf;
using iommu::DmaDir;

struct FuzzParam
{
    u64 seed;
    int ops;
};

// ---- baseline IOMMU vs oracle ------------------------------------------------

class IommuFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(IommuFuzz, TranslateAgreesWithOracle)
{
    const auto [seed, ops] = GetParam();
    Rng rng(seed);
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    iommu::Iommu iommu(pm, cost);
    iommu::IoPageTable table(pm, false, cost, nullptr);
    const Bdf bdf{0, 3, 0};
    iommu.attachDevice(bdf, &table);

    struct Entry
    {
        u64 phys_pfn;
        bool writable;
    };
    std::unordered_map<u64, Entry> oracle; // iova pfn -> entry

    for (int i = 0; i < ops; ++i) {
        const u64 pfn = rng.below(256); // small space: collisions likely
        const int action = static_cast<int>(rng.below(4));
        if (action == 0) { // map
            const bool writable = rng.chance(0.5);
            const u64 phys = 0x100 + rng.below(1000);
            Status s = table.map(pfn, phys,
                                 writable ? DmaDir::kBidir
                                          : DmaDir::kToDevice);
            if (oracle.count(pfn)) {
                EXPECT_EQ(s.code(), ErrorCode::kExists);
            } else {
                ASSERT_TRUE(s.isOk());
                oracle[pfn] = {phys, writable};
            }
        } else if (action == 1) { // unmap
            Status s = table.unmap(pfn);
            EXPECT_EQ(s.isOk(), oracle.erase(pfn) == 1);
            iommu.invalidateIotlbEntry(bdf, pfn); // strict semantics
        } else { // access (read or write)
            const Access acc =
                rng.chance(0.5) ? Access::kRead : Access::kWrite;
            const u64 offset = rng.below(kPageSize);
            auto t = iommu.translate(bdf, (pfn << kPageShift) | offset,
                                     acc);
            auto it = oracle.find(pfn);
            const bool should_ok =
                it != oracle.end() &&
                (acc == Access::kRead || it->second.writable);
            ASSERT_EQ(t.isOk(), should_ok)
                << "op " << i << " pfn " << pfn;
            if (should_ok) {
                EXPECT_EQ(t.value().pa,
                          (it->second.phys_pfn << kPageShift) | offset);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IommuFuzz,
                         ::testing::Values(FuzzParam{11, 4000},
                                           FuzzParam{22, 4000},
                                           FuzzParam{33, 8000},
                                           FuzzParam{44, 2000}));

// ---- rIOMMU ring vs oracle ----------------------------------------------------

class RiommuFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(RiommuFuzz, RingStateAgreesWithOracle)
{
    const auto [seed, ops] = GetParam();
    Rng rng(seed);
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    riommu::Riommu riommu(pm, cost);
    const Bdf bdf{0, 4, 0};
    constexpr u32 kRing = 32;
    riommu::RDevice dev(riommu, pm, bdf, std::vector<u32>{kRing}, true,
                        cost, nullptr);
    const PhysAddr pool = pm.allocContiguous(64 * kPageSize);

    struct Live
    {
        riommu::RIova iova;
        PhysAddr pa;
        u32 size;
        bool writable;
    };
    std::deque<Live> fifo; // ring semantics: map and unmap FIFO

    for (int i = 0; i < ops; ++i) {
        const int action = static_cast<int>(rng.below(3));
        if (action == 0 && fifo.size() < kRing) { // map
            const u32 size = 1 + static_cast<u32>(rng.below(4096));
            const PhysAddr pa = pool + rng.below(60 * kPageSize);
            const bool writable = rng.chance(0.5);
            auto m = dev.map(0, pa, size,
                             writable ? DmaDir::kBidir
                                      : DmaDir::kToDevice);
            ASSERT_TRUE(m.isOk());
            fifo.push_back({m.value(), pa, size, writable});
        } else if (action == 1 && !fifo.empty()) { // unmap oldest
            ASSERT_TRUE(
                dev.unmap(fifo.front().iova, rng.chance(0.3)).isOk());
            fifo.pop_front();
        } else if (!fifo.empty()) { // access random live mapping
            const Live &l = fifo[rng.below(fifo.size())];
            const u32 offset = static_cast<u32>(rng.below(l.size + 16));
            const Access acc =
                rng.chance(0.5) ? Access::kRead : Access::kWrite;
            auto t = riommu.translate(bdf, l.iova.withOffset(offset),
                                      acc, 1);
            const bool should_ok =
                offset < l.size &&
                (acc == Access::kRead || l.writable);
            ASSERT_EQ(t.isOk(), should_ok) << "op " << i;
            if (should_ok) {
                EXPECT_EQ(t.value().pa, l.pa + offset);
            }
        }
        ASSERT_EQ(dev.nmapped(0), fifo.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RiommuFuzz,
                         ::testing::Values(FuzzParam{5, 6000},
                                           FuzzParam{6, 6000},
                                           FuzzParam{7, 12000}));

// ---- campaign parameters -------------------------------------------------------

/** One test of a mode x seed campaign. */
struct ModeSeed
{
    dma::ProtectionMode mode;
    u64 seed;
};

/** Append seeds from RIO_EXTRA_SEEDS ("101,102,...") to @p seeds,
 * skipping any already there (a test name must be unique). Every
 * campaign reads the same variable, so a CI lane widens one campaign
 * by pairing it with that campaign's --gtest_filter. */
void
appendExtraSeeds(std::vector<u64> &seeds)
{
    for (const char *p = std::getenv("RIO_EXTRA_SEEDS"); p && *p;) {
        char *end = nullptr;
        const u64 v = std::strtoull(p, &end, 10);
        if (end == p) {
            ++p; // a separator
            continue;
        }
        if (std::find(seeds.begin(), seeds.end(), v) == seeds.end())
            seeds.push_back(v);
        p = end;
    }
}

/** Every (mode, seed) pair of @p modes x (@p seeds + RIO_EXTRA_SEEDS). */
std::vector<ModeSeed>
modeSeeds(std::vector<u64> seeds,
          std::span<const dma::ProtectionMode> modes = dma::kEvaluatedModes)
{
    appendExtraSeeds(seeds);
    std::vector<ModeSeed> params;
    for (dma::ProtectionMode mode : modes)
        for (u64 seed : seeds)
            params.push_back({mode, seed});
    return params;
}

/** "<mode>_s<seed>" test names. */
std::string
modeSeedName(const ::testing::TestParamInfo<ModeSeed> &info)
{
    std::string name = dma::modeName(info.param.mode);
    for (char &c : name)
        if (c == '-' || c == '+')
            c = '_';
    return name + "_s" + std::to_string(info.param.seed);
}

// ---- fault injection vs oracle -------------------------------------------------

/**
 * The injector makes exactly one Bernoulli draw from its seeded Rng
 * per top-level device access, so an oracle holding a same-seeded Rng
 * predicts WHICH access faults. The campaign runs every protection
 * mode: agreement on the faulting op, on the recorded reason code,
 * and on the post-recovery translation state (a repaired mapping
 * must translate again).
 */
constexpr int kFaultFuzzOps = 400;

class FaultFuzz : public ::testing::TestWithParam<ModeSeed>
{
};

TEST_P(FaultFuzz, InjectedFaultsAgreeWithOracle)
{
    const auto [mode, seed] = GetParam();
    constexpr double kRate = 0.2;
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    const Bdf bdf{0, 3, 0};
    auto handle = ctx.makeHandle(mode, bdf, &acct, {64});
    handle->setFaultPolicy(dma::FaultPolicy::kAbort);
    dma::FaultInjectConfig cfg;
    cfg.rate = kRate;
    cfg.seed = seed;
    handle->setFaultInjection(cfg);
    Rng oracle(seed); // mirrors the injector's stream draw-for-draw

    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 2048, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());
    const u64 addr = m.value().device_addr;

    const bool baseline_iommu = mode == dma::ProtectionMode::kStrict ||
                                mode == dma::ProtectionMode::kStrictPlus ||
                                mode == dma::ProtectionMode::kDefer ||
                                mode == dma::ProtectionMode::kDeferPlus;
    const bool riommu = dma::modeUsesRiommu(mode);

    u64 predicted = 0;
    u64 v = 0;
    for (int i = 0; i < kFaultFuzzOps; ++i) {
        const size_t iommu_faults_before = ctx.iommu().faults().size();
        const size_t ring_faults_before = ctx.riommu().faults().size();
        const bool predict = oracle.chance(kRate);
        predicted += predict ? 1 : 0;
        Status s = (i % 2) ? handle->deviceWrite(addr, &v, 8)
                           : handle->deviceRead(addr, &v, 8);
        ASSERT_EQ(!s.isOk(), predict)
            << "op " << i << ": oracle and injector disagree";
        if (!predict)
            continue;

        // Reason code: injected damage unmaps the translation, so
        // the hardware reports not-present (modes with no modeled
        // translation synthesize a bus abort and record nothing).
        if (baseline_iommu) {
            ASSERT_GT(ctx.iommu().faults().size(), iommu_faults_before);
            const iommu::FaultRecord &rec = ctx.iommu().faults().back();
            EXPECT_EQ(rec.reason, iommu::FaultReason::kNotPresent);
            EXPECT_EQ(rec.iova, addr);
            EXPECT_EQ(rec.bdf.pack(), bdf.pack());
        } else if (riommu) {
            ASSERT_GT(ctx.riommu().faults().size(), ring_faults_before);
            const iommu::FaultRecord &rec = ctx.riommu().faults().back();
            EXPECT_EQ(rec.reason, iommu::FaultReason::kNotPresent);
            EXPECT_EQ(rec.iova, addr);
            // Recovery acknowledged (cleared) the ring latch.
            EXPECT_EQ(ctx.riommu().ringFault(bdf, 0), nullptr);
        }

        // Post-recovery state: the repaired mapping translates again.
        // Each verification access draws from the same stream, so
        // mirror it (10 consecutive injections: p = 0.2^10).
        bool recovered_ok = false;
        for (int t = 0; t < 10 && !recovered_ok; ++t) {
            const bool vinj = oracle.chance(kRate);
            predicted += vinj ? 1 : 0;
            Status vs = handle->deviceRead(addr, &v, 8);
            ASSERT_EQ(!vs.isOk(), vinj) << "verify op " << i;
            recovered_ok = vs.isOk();
        }
        EXPECT_TRUE(recovered_ok);
    }

    EXPECT_EQ(handle->faultStats().injected, predicted);
    EXPECT_GE(predicted, 1u) << "400 ops at 20% should inject";
    // Repair left the mapping whole: teardown must not trip the
    // driver's unmap assertions.
    EXPECT_TRUE(handle->unmap(m.value(), true).isOk());
}

TEST_P(FaultFuzz, RetryRemapDeliversEveryAccess)
{
    const auto [mode, seed] = GetParam();
    constexpr double kRate = 0.2;
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(mode, Bdf{0, 3, 0}, &acct, {64});
    handle->setFaultPolicy(dma::FaultPolicy::kRetryRemap);
    dma::FaultInjectConfig cfg;
    cfg.rate = kRate;
    cfg.seed = seed;
    handle->setFaultInjection(cfg);
    Rng oracle(seed);

    const PhysAddr buf = ctx.memory().allocFrame();
    auto m = handle->map(0, buf, 2048, DmaDir::kBidir);
    ASSERT_TRUE(m.isOk());

    u64 predicted = 0;
    u64 v = 0;
    for (int i = 0; i < kFaultFuzzOps; ++i) {
        predicted += oracle.chance(kRate) ? 1 : 0;
        // Retries replay the access inline (no further draws), so
        // with remap every access must come back successful.
        Status s = (i % 2)
                       ? handle->deviceWrite(m.value().device_addr, &v, 8)
                       : handle->deviceRead(m.value().device_addr, &v, 8);
        ASSERT_TRUE(s.isOk()) << "op " << i << ": " << s.toString();
    }
    const dma::FaultStats st = handle->faultStats();
    EXPECT_EQ(st.injected, predicted);
    EXPECT_EQ(st.faults_seen, st.injected);
    EXPECT_EQ(st.recovered, st.injected);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_TRUE(handle->unmap(m.value(), true).isOk());
}

// The seven evaluated modes plus both pass-through modes.
constexpr std::array<dma::ProtectionMode, 9> kAllModes = {
    dma::ProtectionMode::kStrict,   dma::ProtectionMode::kStrictPlus,
    dma::ProtectionMode::kDefer,    dma::ProtectionMode::kDeferPlus,
    dma::ProtectionMode::kRiommuNc, dma::ProtectionMode::kRiommu,
    dma::ProtectionMode::kNone,     dma::ProtectionMode::kHwPassthrough,
    dma::ProtectionMode::kSwPassthrough};

INSTANTIATE_TEST_SUITE_P(ModesAndSeeds, FaultFuzz,
                         ::testing::ValuesIn(modeSeeds(
                             {3, 7, 31, 64, 129, 1023, 4096, 65537},
                             kAllModes)),
                         modeSeedName);

// ---- system campaigns: one per driver ------------------------------------------

// Each runs once per (mode, seed) in all seven evaluated modes, and the
// seed alone draws the scenario, so a failing test name is its own
// replay. Fleet and migration runs are judged by their driver's
// invariant suite; replay determinism is one fingerprint test per
// driver in cluster_test and migrate_test.

/**
 * Machine campaign: a seeded walk of mapped send bursts, surprise
 * unplugs mid-burst, DMA through the detached BDF, replugs and map/DMA/
 * unmap round trips, bare or in a guest the seed draws. Invariants:
 * leak-free after every removal and the final quiesce; one kDetached
 * record per detached access; round-trip data intact, a failed map only
 * kDetached or kOverflow; the shadow table mirrors the guest's; vmexits
 * only grow; the lifecycle counters match the walk.
 */
class MachineFuzz : public ::testing::TestWithParam<ModeSeed>
{
};

const std::vector<u64> kMachineSeeds = {2, 13, 17, 59, 277, 301};

/** The walk's first draw: bare (no Guest) or a vIOMMU platform. */
virt::Platform
drawPlatform(Rng &rng)
{
    return virt::kAllPlatforms[rng.below(4)];
}

TEST_P(MachineFuzz, BurstsChurnAndDmaLeakNothing)
{
    const auto [mode, seed] = GetParam();
    Rng rng(seed);
    const virt::Platform platform = drawPlatform(rng);
    des::Simulator sim;
    nic::NicProfile profile; // small rings for fast runs
    profile.name = "fuzz";
    profile.tx_buffers_per_packet = 1;
    profile.rx_rings = 1;
    profile.rx_ring_entries = 8;
    profile.tx_ring_entries = 64;
    profile.tx_completion_batch = 8;
    sys::Machine m(sim, mode, profile);
    std::optional<virt::Guest> guest; // boot binds + hypercalls
    if (platform != virt::Platform::kBare)
        guest.emplace(m, platform);
    m.bringUp();
    SCOPED_TRACE(virt::platformName(platform));

    auto *baseline = dynamic_cast<dma::BaselineDmaHandle *>(&m.handle());
    auto checkShadowMirror = [&] {
        if (platform == virt::Platform::kShadow && baseline) {
            ASSERT_NE(guest->shadowTable(0), nullptr);
            EXPECT_EQ(guest->shadowTable(0)->mappedPages(),
                      baseline->pageTable().mappedPages());
        }
    };
    auto burst = [&](u64 n) {
        for (u64 j = 0; j < n && m.nic().txSpacePackets(1000) > 0; ++j) {
            net::Packet pkt;
            pkt.payload_bytes = 1000;
            ASSERT_TRUE(m.nic().sendPacket(pkt).isOk());
        }
    };
    // rid 1 is the Tx-buffer ring (rid 0 is full after bringUp in the
    // rIOMMU modes); mid-outage or a ring full of in-flight Tx buffers
    // are the legitimate map failures.
    auto roundTrip = [&](int step) {
        const PhysAddr buf = m.ctx().memory().allocFrame();
        auto mapping = m.handle().map(
            1, buf, 256 + static_cast<u32>(rng.below(1024)),
            DmaDir::kBidir);
        if (!mapping.isOk()) {
            EXPECT_TRUE(mapping.status().code() == ErrorCode::kDetached ||
                        mapping.status().code() == ErrorCode::kOverflow)
                << mapping.status().toString();
            return;
        }
        const u64 v = 0xfeed0000 + static_cast<u64>(step);
        const u64 addr = mapping.value().device_addr;
        ASSERT_TRUE(m.handle().deviceWrite(addr, &v, 8).isOk());
        u64 back = 0;
        ASSERT_TRUE(m.handle().deviceRead(addr, &back, 8).isOk());
        EXPECT_EQ(back, v) << "step " << step;
        ASSERT_TRUE(m.handle().unmap(mapping.value(), rng.chance(0.5)).isOk());
    };

    u64 expected_detach_faults = 0, unplugs = 0, replugs = 0, exits = 0;
    for (int i = 0; i < 60; ++i) {
        const u64 action = rng.below(20);
        if (m.nic().isUp() && action < 6) {
            // Surprise unplug mid-burst, at a random ring point.
            const u64 pre = rng.below(24);
            m.core().post([&, pre] {
                burst(pre);
                m.surpriseUnplugNic(0);
                m.removeCleanupNic(0);
            });
            sim.run();
            ++unplugs;
            const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle());
            ASSERT_TRUE(rep.clean()) << "step " << i << ": " << rep.toString();
        } else if (m.nic().isUp() && action < 11) {
            const u64 n = rng.below(16);
            m.core().post([&, n] { burst(n); });
            sim.run();
        } else if (!m.nic().isUp() && action < 6) {
            // DMA through the detached BDF: one typed record per
            // attempt, never undefined behaviour.
            u64 v = 0;
            EXPECT_EQ(m.handle().deviceRead(0x4000, &v, 8).code(),
                      ErrorCode::kDetached);
            ++expected_detach_faults;
        } else if (!m.nic().isUp() && action < 15) {
            m.core().post([&] {
                Status rs = m.replugNic(0);
                ASSERT_TRUE(rs.isOk()) << rs.toString();
            });
            sim.run();
            ++replugs;
        } else {
            roundTrip(i);
        }
        checkShadowMirror();
        if (guest) {
            EXPECT_GE(guest->exitModel().exits(), exits);
            exits = guest->exitModel().exits();
            EXPECT_EQ(guest->stats().vm_exits, exits);
        }
    }
    EXPECT_EQ(m.handle().detachFaults().size(), expected_detach_faults);
    for (const auto &rec : m.handle().detachFaults())
        EXPECT_EQ(rec.reason, iommu::FaultReason::kDetached);
    EXPECT_GT(unplugs, 0u) << "the walk never unplugged";
    EXPECT_EQ(m.lifecycleStats().surprise_unplugs, unplugs);
    EXPECT_EQ(m.lifecycleStats().replugs, replugs);

    // Orderly exit from whatever state the walk ended in.
    if (!m.nic().isUp()) {
        m.core().post([&] { ASSERT_TRUE(m.replugNic(0).isOk()); });
        sim.run();
    }
    ASSERT_TRUE(m.quiesceNic(0).isOk());
    EXPECT_TRUE(m.handle().detached());
    const dma::LeakReport final_rep = m.ctx().checkHandleLeaks(m.handle());
    EXPECT_TRUE(final_rep.clean()) << final_rep.toString();
    EXPECT_EQ(m.handle().liveMappings(), 0u);
    checkShadowMirror();
    if (guest && dma::modeUsesRiommu(mode) &&
        platform != virt::Platform::kShadow) {
        EXPECT_GT(guest->stats().hypercalls, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(ModesAndSeeds, MachineFuzz,
                         ::testing::ValuesIn(modeSeeds(kMachineSeeds)),
                         modeSeedName);

/**
 * Fleet campaign: a 2-3 machine churning RDMA fabric where the seed
 * independently arms fault injection, a lossy wire (drop/dup/delay),
 * a bounded ingress port, hard-abort churn, incast into machine 0 and
 * the rDEVICE fetch-cache / per-core depot variants; reliability is on
 * exactly when a hazard needs it. Besides the fleet invariant suite,
 * the levers must bite: traffic flows, churn takes QPs down, a lossy
 * wire drops and retransmits.
 */
class FleetFuzz : public ::testing::TestWithParam<ModeSeed>
{
};

const std::vector<u64> kFleetSeeds = {5, 7, 23, 31, 411, 502};

/** A fleet campaign scenario, drawn from its seed alone. */
std::pair<workloads::FleetParams, sys::ClusterConfig>
fleetShape(dma::ProtectionMode mode, u64 seed)
{
    Rng shape(seed * 0xD1B54A32D192ED03ULL + 11);
    std::pair<workloads::FleetParams, sys::ClusterConfig> s;
    auto &[p, cfg] = s;
    p.connections = static_cast<u32>(8u << shape.below(4)); // 8..64
    p.zipf_theta = 0.5 + 0.1 * static_cast<double>(shape.below(8));
    p.read_fraction = 0.1 * static_cast<double>(shape.below(5));
    p.credits = static_cast<u32>(shape.range(4, 12));
    p.warmup_ops = 50;
    p.measure_ops = 300;
    p.churn_period_ops = static_cast<u32>(shape.range(25, 75));
    p.seed = seed * 77 + 1;
    cfg.machines = static_cast<unsigned>(shape.range(2, 3));
    cfg.mode = mode;
    cfg.fault_seed = seed + 9;
    if (shape.chance(0.5))
        cfg.fault_rate = 0.02;
    if (shape.chance(0.5)) {
        cfg.wire = sys::stormWire(
            0.01 * static_cast<double>(shape.range(1, 5))); // 1%..5%
        cfg.wire.delay_max_ns = 20000 + 10000 * shape.below(5);
    }
    if (shape.chance(0.5))
        cfg.wire.ingress_cap = static_cast<u32>(shape.range(8, 24));
    if (shape.chance(0.5))
        p.churn_abort_fraction = 0.5;
    if (shape.chance(0.5)) {
        p.incast_period_ops = static_cast<u32>(shape.range(20, 50));
        p.incast_burst = static_cast<u32>(shape.range(2, 5));
    }
    if (shape.chance(0.5)) {
        // Each applies to the modes that have the structure.
        cfg.rdcache.model_fetch = true;
        cfg.rdcache.hot_entries = 64;
        cfg.iova_cache_rounds = 8;
    }
    cfg.reliability.enabled =
        cfg.wire.armed() || p.churn_abort_fraction > 0.0;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    return s;
}

TEST_P(FleetFuzz, ComposedHazardsKeepFleetInvariants)
{
    const auto [mode, seed] = GetParam();
    const auto [p, cfg] = fleetShape(mode, seed);
    sys::Cluster cluster(cfg);
    const workloads::FleetReport rep = workloads::runFleet(cluster, p);
    EXPECT_EQ(workloads::fleetViolations(cfg, p, rep), "");
    EXPECT_GT(rep.measured_ops, 0u);
    EXPECT_GT(rep.teardowns + rep.qp_errors, 0u)
        << "churn period " << p.churn_period_ops << " never took a QP down";
    if (cfg.wire.drop_rate > 0.0) {
        EXPECT_GT(rep.wire_drops, 0u);
        EXPECT_GT(rep.retransmits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(ModesAndSeeds, FleetFuzz,
                         ::testing::ValuesIn(modeSeeds(kFleetSeeds)),
                         modeSeedName);

/**
 * Migration campaign: the seed draws the platform, guest size, dirty
 * rate, wire loss, fleet width and whether the migration stream's QP
 * is hard-aborted mid-round (runMigration's hostility hook). Whatever
 * happened, the migration invariant suite must hold.
 */
class MigrateFuzz : public ::testing::TestWithParam<ModeSeed>
{
};

TEST_P(MigrateFuzz, HostileMigrationKeepsMigrationInvariants)
{
    const auto [mode, seed] = GetParam();
    Rng shape(seed * 0x9E3779B97F4A7C15ULL + 17);
    workloads::MigrationParams p;
    p.mode = mode;
    p.platform = virt::kAllPlatforms[shape.below(4)];
    p.pages = 256u << shape.below(3); // 256..1024
    p.dirty = 100.0 * static_cast<double>(shape.range(0, 6));
    p.loss = 0.01 * static_cast<double>(shape.range(0, 4));
    p.app_qps = static_cast<unsigned>(shape.range(2, 6));
    p.dirty_seed = seed * 131 + 7;
    const bool abort_stream = shape.chance(0.5);
    const Nanos abort_at = 20000 * shape.range(1, 8);
    const workloads::MigrationResult r = workloads::runMigration(
        p, [&](sys::Cluster &cl, migrate::Migrator &,
               const std::vector<u32> &) {
            if (!abort_stream)
                return;
            cl.lane(0).sim().scheduleAfter(abort_at, [&cl] {
                cl.machine(0).core(0).post([&cl] {
                    for (u32 q = 0; q < cl.migNic(0).maxQps(); ++q)
                        (void)cl.migNic(0).abortQp(q);
                });
            });
        });
    EXPECT_EQ(workloads::migrationViolations(p, r), "");
    EXPECT_GE(r.rep.pages_shipped, 1u);
}

INSTANTIATE_TEST_SUITE_P(ModesAndSeeds, MigrateFuzz,
                         ::testing::ValuesIn(modeSeeds({11, 47, 1009})),
                         modeSeedName);

/** Tier-1 coverage must not rest on how the draws fall: the
 * compiled-in seeds put the machine walk on every platform, and arm
 * each fleet hazard on two seeds or more (14+ scenarios) but not all. */
TEST(CampaignCoverage, BaseSeedsArmEveryHazard)
{
    for (virt::Platform platform : virt::kAllPlatforms)
        EXPECT_TRUE(std::ranges::any_of(kMachineSeeds, [&](u64 seed) {
            Rng rng(seed);
            return drawPlatform(rng) == platform;
        })) << virt::platformName(platform);
    // faults, loss, ingress cap, abort churn, incast, rdcache/depot
    std::array<size_t, 6> armed{};
    for (u64 seed : kFleetSeeds) {
        const auto [p, cfg] = fleetShape(dma::ProtectionMode::kRiommu, seed);
        armed[0] += cfg.fault_rate > 0.0;
        armed[1] += cfg.wire.drop_rate > 0.0;
        armed[2] += cfg.wire.ingress_cap > 0;
        armed[3] += p.churn_abort_fraction > 0.0;
        armed[4] += p.incast_period_ops > 0;
        armed[5] += cfg.rdcache.model_fetch;
    }
    for (size_t h = 0; h < armed.size(); ++h) {
        EXPECT_GE(armed[h], 2u) << "hazard " << h;
        EXPECT_LT(armed[h], kFleetSeeds.size()) << "hazard " << h;
    }
}

// ---- overflow under pressure ---------------------------------------------------

TEST(RiommuFuzzEdge, FullRingAlwaysOverflowsNeverCorrupts)
{
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    riommu::Riommu riommu(pm, cost);
    riommu::RDevice dev(riommu, pm, Bdf{0, 4, 0}, std::vector<u32>{4},
                        true, cost, nullptr);
    const PhysAddr pa = pm.allocFrame();
    std::vector<riommu::RIova> live;
    for (int i = 0; i < 4; ++i)
        live.push_back(dev.map(0, pa, 8, DmaDir::kBidir).value());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dev.map(0, pa, 8, DmaDir::kBidir).status().code(),
                  ErrorCode::kOverflow);
    // Everything mapped before the overflow storm still translates.
    for (const auto &iova : live) {
        EXPECT_TRUE(
            riommu.translate(Bdf{0, 4, 0}, iova, Access::kRead, 1)
                .isOk());
    }
}

} // namespace
} // namespace rio
