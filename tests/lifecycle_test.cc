/**
 * @file
 * Device lifecycle robustness tests: the orderly quiesce protocol
 * (stop posting → drain → unmap all → flush → detach) across every
 * protection mode, surprise hot-unplug at every ring index of a
 * 256-entry burst with zero leaked mappings, the use-after-detach
 * guard, the stale-mapping leak detector, invalidation-queue
 * time-out recovery (VT-d ITE analog) with other devices' queued
 * invalidations surviving, the context-cache detach regression, and
 * churn composing with fault injection.
 */
#include <gtest/gtest.h>

#include <vector>

#include "dma/dma_context.h"
#include "iommu/inval_queue.h"
#include "nvme/nvme.h"
#include "ahci/ahci.h"
#include "sys/machine.h"
#include "workloads/stream.h"

namespace rio {
namespace {

using dma::ProtectionMode;
using iommu::Access;
using iommu::Bdf;
using iommu::DmaDir;
using iommu::FaultReason;
using cycles::Cat;

nic::NicProfile
testProfile()
{
    nic::NicProfile p; // small rings, 1 buffer/packet for fast tests
    p.name = "test";
    p.tx_buffers_per_packet = 1;
    p.rx_rings = 1;
    p.rx_ring_entries = 16;
    p.tx_ring_entries = 512; // room for a full 256-entry burst
    p.tx_completion_batch = 16;
    p.tx_irq_delay_ns = 5000;
    p.rx_irq_delay_ns = 1000;
    return p;
}

net::Packet
mappedPacket()
{
    net::Packet pkt;
    pkt.payload_bytes = 1000; // above the inline threshold: maps
    return pkt;
}

class LifecycleModeTest : public ::testing::TestWithParam<ProtectionMode>
{
};

// ---- orderly quiesce --------------------------------------------------------

TEST_P(LifecycleModeTest, QuiesceProtocolOrderAndNoLeaks)
{
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    m.bringUp();
    m.core().post([&] {
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
    });
    sim.run();

    ASSERT_TRUE(m.quiesceNic(0).isOk());

    // The journal records the protocol phases, in protocol order.
    const auto &log = m.lifecycleLog();
    ASSERT_EQ(log.size(), 5u);
    EXPECT_EQ(log[0].phase, sys::LifecyclePhase::kStopPosting);
    EXPECT_EQ(log[1].phase, sys::LifecyclePhase::kDrain);
    EXPECT_EQ(log[2].phase, sys::LifecyclePhase::kUnmapAll);
    EXPECT_EQ(log[3].phase, sys::LifecyclePhase::kFlush);
    EXPECT_EQ(log[4].phase, sys::LifecyclePhase::kDetach);
    EXPECT_EQ(m.lifecycleStats().quiesces, 1u);

    EXPECT_TRUE(m.handle().detached());
    EXPECT_EQ(m.handle().liveMappings(), 0u);
    const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle());
    EXPECT_TRUE(rep.clean()) << rep.toString();
}

// ---- surprise unplug at every ring index ------------------------------------

TEST_P(LifecycleModeTest, UnplugAtEveryRingIndexLeaksNothing)
{
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    m.bringUp();

    for (unsigned k = 0; k < 256; ++k) {
        // Burst of k mapped sends, then the device vanishes mid-burst
        // (scheduled device events die; nothing was drained).
        m.core().post([&, k] {
            for (unsigned j = 0; j < k; ++j)
                ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
            m.surpriseUnplugNic(0);
            m.removeCleanupNic(0);
        });
        sim.run();

        const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle());
        EXPECT_TRUE(rep.clean())
            << "unplug at ring index " << k << ": " << rep.toString();
        EXPECT_EQ(m.nic().liveMappings(), 0u) << "ring index " << k;

        // Exactly one typed use-after-detach record per post-unplug
        // DMA attempt.
        const u64 before = m.handle().detachFaults().size();
        u64 v = 0;
        Status s = m.handle().deviceRead(0x1000, &v, 8);
        EXPECT_EQ(s.code(), ErrorCode::kDetached);
        s = m.handle().deviceWrite(0x2000, &v, 8);
        EXPECT_EQ(s.code(), ErrorCode::kDetached);
        ASSERT_EQ(m.handle().detachFaults().size(), before + 2);
        const iommu::FaultRecord &rec = m.handle().detachFaults().back();
        EXPECT_EQ(rec.reason, FaultReason::kDetached);
        EXPECT_EQ(rec.bdf.pack(), m.handle().bdf().pack());
        m.handle().clearDetachFaults();

        m.core().post([&] {
            Status rs = m.replugNic(0);
            ASSERT_TRUE(rs.isOk()) << rs.toString();
        });
        sim.run();
        ASSERT_TRUE(m.nic().isUp());
        ASSERT_FALSE(m.handle().detached());
    }
    EXPECT_EQ(m.lifecycleStats().surprise_unplugs, 256u);
    EXPECT_EQ(m.lifecycleStats().replugs, 256u);
}

TEST_P(LifecycleModeTest, ReplugRestoresService)
{
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    m.bringUp();
    u64 on_wire = 0;
    m.nic().setWireTxCallback([&](const net::Packet &) { ++on_wire; });

    m.core().post([&] {
        for (int i = 0; i < 10; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
    });
    sim.run();
    EXPECT_EQ(on_wire, 10u);

    m.core().post([&] {
        m.surpriseUnplugNic(0);
        // A down NIC advertises no tx space: the stack stalls rather
        // than crashing into the dead device.
        EXPECT_EQ(m.nic().txSpacePackets(1000), 0u);
        m.removeCleanupNic(0);
        ASSERT_TRUE(m.replugNic(0).isOk());
        for (int i = 0; i < 10; ++i)
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
    });
    sim.run();
    EXPECT_EQ(on_wire, 20u);
    EXPECT_EQ(m.nic().stats().surprise_unplugs, 1u);
    EXPECT_EQ(m.nic().stats().replugs, 1u);

    // Unplug journal order: unplug, cleanup, reattach, replug.
    const auto &log = m.lifecycleLog();
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0].phase, sys::LifecyclePhase::kSurpriseUnplug);
    EXPECT_EQ(log[1].phase, sys::LifecyclePhase::kRemoveCleanup);
    EXPECT_EQ(log[2].phase, sys::LifecyclePhase::kReattach);
    EXPECT_EQ(log[3].phase, sys::LifecyclePhase::kReplug);
}

TEST_P(LifecycleModeTest, StaleTxCompletionAfterReplugTouchesNothing)
{
    // Probe run: when does one packet's Tx completion fire?
    Nanos t_complete = 0;
    {
        des::Simulator sim;
        sys::Machine m(sim, GetParam(), testProfile());
        m.bringUp();
        m.nic().setWireTxCallback(
            [&](const net::Packet &) { t_complete = sim.now(); });
        m.core().post([&] {
            ASSERT_TRUE(m.nic().sendPacket(mappedPacket()).isOk());
        });
        sim.run();
        ASSERT_GT(t_complete, 1u);
    }

    // Same run, stopped just before that completion: the packet is on
    // the wire, its completion event pending.
    des::Simulator sim;
    sys::Machine m(sim, GetParam(), testProfile());
    m.bringUp();
    std::vector<u64> wire_flows;
    m.nic().setWireTxCallback(
        [&](const net::Packet &pkt) { wire_flows.push_back(pkt.flow); });
    net::Packet old_pkt = mappedPacket();
    old_pkt.flow = 1;
    m.core().post(
        [&] { ASSERT_TRUE(m.nic().sendPacket(old_pkt).isOk()); });
    sim.runUntil(t_complete - 1);
    ASSERT_EQ(sim.nextEventTime(), t_complete);
    ASSERT_EQ(m.nic().stats().tx_packets, 0u);

    // Unplug under the in-flight packet, replug, send one new packet.
    // The stale completion fires first and must retire nothing: not
    // even the new packet, which sits in the same ring slot.
    u32 space_after_replug = 0;
    net::Packet new_pkt = mappedPacket();
    new_pkt.flow = 2;
    m.core().post([&] {
        m.surpriseUnplugNic(0);
        m.removeCleanupNic(0);
        ASSERT_TRUE(m.replugNic(0).isOk());
        space_after_replug = m.nic().txSpacePackets(1000);
        ASSERT_TRUE(m.nic().sendPacket(new_pkt).isOk());
    });
    sim.run();

    EXPECT_EQ(wire_flows, std::vector<u64>{2});
    EXPECT_EQ(m.nic().stats().tx_packets, 1u);
    EXPECT_EQ(m.nic().txSpacePackets(1000), space_after_replug)
        << "every descriptor retired and recycled exactly once";
    EXPECT_EQ(m.nic().liveMappings(),
              m.nic().profile().rx_rings *
                      m.nic().profile().rx_ring_entries + 2)
        << "only the static rings and the Rx prefill stay mapped";
    ASSERT_TRUE(m.quiesceNic(0).isOk());
    const dma::LeakReport rep = m.ctx().checkHandleLeaks(m.handle());
    EXPECT_TRUE(rep.clean()) << rep.toString();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, LifecycleModeTest,
    ::testing::Values(ProtectionMode::kStrict, ProtectionMode::kStrictPlus,
                      ProtectionMode::kDefer, ProtectionMode::kDeferPlus,
                      ProtectionMode::kRiommuNc, ProtectionMode::kRiommu,
                      ProtectionMode::kNone),
    [](const ::testing::TestParamInfo<ProtectionMode> &info) {
        std::string n = dma::modeName(info.param);
        for (char &c : n)
            if (c == '-' || c == '+')
                c = '_';
        return n;
    });

// ---- stale-mapping leak detector --------------------------------------------

TEST(LeakDetectorTest, ReportsSkippedUnmapWithRingAndAddress)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(ProtectionMode::kRiommu, Bdf{0, 9, 0},
                                 &acct, std::vector<u32>{8, 8});
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m0 = handle->map(0, buf, 256, DmaDir::kToDevice);
    auto m1 = handle->map(1, buf, 512, DmaDir::kToDevice);
    ASSERT_TRUE(m0.isOk());
    ASSERT_TRUE(m1.isOk());
    // Driver bug under test: ring 0's mapping is unmapped, ring 1's
    // unmap is skipped before the detach.
    ASSERT_TRUE(handle->unmap(m0.value(), true).isOk());
    ASSERT_TRUE(handle->detach().isOk());

    const dma::LeakReport rep = ctx.checkHandleLeaks(*handle);
    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.leaked, 1u);
    EXPECT_EQ(rep.records[0].rid, 1u) << "owner ring reported";
    EXPECT_EQ(rep.records[0].device_addr, m1.value().device_addr);
    EXPECT_EQ(rep.records[0].bdf.pack(), (Bdf{0, 9, 0}).pack());
    EXPECT_NE(rep.toString().find("ring 1"), std::string::npos)
        << rep.toString();
}

TEST(LeakDetectorTest, BaselineSkippedUnmapIsCaught)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(ProtectionMode::kStrict, Bdf{0, 9, 0},
                                 &acct);
    const PhysAddr buf = ctx.memory().allocFrame();
    auto m0 = handle->map(0, buf, 256, DmaDir::kToDevice);
    ASSERT_TRUE(m0.isOk());
    ASSERT_TRUE(handle->detach().isOk());
    const dma::LeakReport rep = ctx.checkHandleLeaks(*handle);
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.leaked, 1u);
}

// ---- invalidation-queue time-out recovery (ITE analog) ----------------------

class InvalTimeoutTest : public ::testing::Test
{
  protected:
    InvalTimeoutTest()
        : iommu(pm, cost), table_a(pm, false, cost, nullptr),
          table_b(pm, false, cost, nullptr), qi(pm, iommu, cost, 16)
    {
        iommu.attachDevice(a, &table_a);
        iommu.attachDevice(b, &table_b);
        // One live translation per device, resident in the IOTLB.
        EXPECT_TRUE(table_a.map(0x10, 0x99, DmaDir::kBidir).isOk());
        EXPECT_TRUE(table_b.map(0x20, 0x98, DmaDir::kBidir).isOk());
        EXPECT_TRUE(
            iommu.translate(a, 0x10ull << kPageShift, Access::kRead)
                .isOk());
        EXPECT_TRUE(
            iommu.translate(b, 0x20ull << kPageShift, Access::kRead)
                .isOk());
    }

    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    cycles::CycleAccount acct;
    iommu::Iommu iommu;
    Bdf a{0, 3, 0};
    Bdf b{0, 4, 0};
    iommu::IoPageTable table_a, table_b;
    iommu::InvalQueue qi;
};

TEST_F(InvalTimeoutTest, TransientOutageRecoversWithRetryBackoff)
{
    qi.setDeviceResponsive(a.pack(), false);
    Status s = qi.invalidateEntrySync(a, 0x10, &acct);
    EXPECT_EQ(s.code(), ErrorCode::kTimedOut);
    EXPECT_TRUE(qi.queueError()) << "sticky ITE state";
    EXPECT_EQ(qi.stats().timeouts, 1u);
    EXPECT_GT(acct.get(Cat::kLifecycle), 0u)
        << "the bounded spin is charged as lifecycle work";

    // First retry: device still dead, the queue re-freezes.
    EXPECT_EQ(qi.recoverRetry(&acct).code(), ErrorCode::kTimedOut);
    EXPECT_EQ(qi.stats().retries, 1u);

    // Device answers again (transient glitch): retry drains fully.
    qi.setDeviceResponsive(a.pack(), true);
    EXPECT_TRUE(qi.recoverRetry(&acct).isOk());
    EXPECT_FALSE(qi.queueError());
    EXPECT_FALSE(iommu.iotlb().contains(a.pack(), 0x10))
        << "the retried invalidation executed";

    // The queue is healthy: other devices invalidate normally.
    EXPECT_TRUE(qi.invalidateEntrySync(b, 0x20, &acct).isOk());
    EXPECT_FALSE(iommu.iotlb().contains(b.pack(), 0x20));
}

TEST_F(InvalTimeoutTest, AbortSkipPreservesOtherDevicesInvalidations)
{
    qi.setDeviceResponsive(a.pack(), false);
    // A's invalidation freezes the queue at its descriptor; B's,
    // submitted behind the frozen head, times out too but stays
    // queued.
    EXPECT_EQ(qi.invalidateEntrySync(a, 0x10, &acct).code(),
              ErrorCode::kTimedOut);
    EXPECT_EQ(qi.invalidateEntrySync(b, 0x20, &acct).code(),
              ErrorCode::kTimedOut);
    EXPECT_TRUE(iommu.iotlb().contains(a.pack(), 0x10));
    EXPECT_TRUE(iommu.iotlb().contains(b.pack(), 0x20));

    // Abort-queue recovery: skip the dead descriptor; everything
    // behind it — B's invalidation included — executes normally.
    EXPECT_TRUE(qi.abortAndSkip(&acct).isOk());
    EXPECT_FALSE(qi.queueError());
    EXPECT_EQ(qi.head(), qi.tail());
    EXPECT_EQ(qi.stats().head_skips, 1u);
    EXPECT_FALSE(iommu.iotlb().contains(b.pack(), 0x20))
        << "B's queued invalidation survived the recovery";

    // The skipped invalidation never executed: A's stale entry is
    // the caller's to purge in software.
    EXPECT_TRUE(iommu.iotlb().contains(a.pack(), 0x10));
    iommu.iotlb().invalidateEntry(a.pack(), 0x10);
    EXPECT_EQ(iommu.iotlb().validEntriesFor(a.pack()), 0u);
}

// ---- context-cache detach regression (satellite: detachDevice purge) --------

TEST(CtxCacheTest, DetachPurgesIotlbAndContextCache)
{
    mem::PhysicalMemory pm;
    cycles::CostModel cost;
    iommu::Iommu iommu(pm, cost);
    iommu::IoPageTable table(pm, false, cost, nullptr);
    const Bdf bdf{0, 7, 0};
    iommu.attachDevice(bdf, &table);
    ASSERT_TRUE(table.map(0x30, 0x97, DmaDir::kBidir).isOk());
    ASSERT_TRUE(
        iommu.translate(bdf, 0x30ull << kPageShift, Access::kRead)
            .isOk());
    EXPECT_EQ(iommu.contextCacheSize(), 1u);
    EXPECT_GT(iommu.iotlb().validEntriesFor(bdf.pack()), 0u);

    iommu.detachDevice(bdf);
    // Neither cache may keep translating through structures the OS
    // believes are gone.
    EXPECT_EQ(iommu.contextCacheSize(), 0u);
    EXPECT_EQ(iommu.iotlb().validEntriesFor(bdf.pack()), 0u);
    EXPECT_GT(iommu.ctxCacheStats().purges, 0u);
    EXPECT_FALSE(
        iommu.translate(bdf, 0x30ull << kPageShift, Access::kRead)
            .isOk());
}

// ---- churn composes with fault injection ------------------------------------

TEST(ChurnTest, ComposesWithFaultInjection)
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.measure_packets = 2000;
    p.warmup_packets = 200;
    p.fault_rate = 0.001;
    p.fault_policy = dma::FaultPolicy::kRetryRemap;
    p.churn_per_ms = 1.0;
    p.churn_seed = 7;
    const workloads::RunResult r = workloads::runStream(
        ProtectionMode::kStrict, nic::mlxProfile(), p);
    EXPECT_GT(r.surprise_unplugs, 0u);
    EXPECT_EQ(r.replugs, r.surprise_unplugs);
    EXPECT_GT(r.fault.injected, 0u) << "injection stays armed across "
                                       "unplug/replug transitions";
    EXPECT_GT(r.acct.get(Cat::kLifecycle), 0u);
}

TEST(ChurnTest, DeterministicAcrossRuns)
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.measure_packets = 2000;
    p.warmup_packets = 200;
    p.churn_per_ms = 2.0;
    p.churn_seed = 11;
    const workloads::RunResult r1 = workloads::runStream(
        ProtectionMode::kRiommu, nic::mlxProfile(), p);
    const workloads::RunResult r2 = workloads::runStream(
        ProtectionMode::kRiommu, nic::mlxProfile(), p);
    EXPECT_GT(r1.surprise_unplugs, 0u);
    EXPECT_EQ(r1.surprise_unplugs, r2.surprise_unplugs);
    EXPECT_EQ(r1.cycles_per_packet, r2.cycles_per_packet)
        << "churn is a deterministic virtual-time process";
}

// ---- non-NIC device families ------------------------------------------------

TEST(NvmeLifecycleTest, SurpriseUnplugMidCommandLeaksNothing)
{
    des::Simulator sim;
    dma::DmaContext ctx;
    des::Core core(sim, ctx.cost());
    auto handle = ctx.makeHandle(ProtectionMode::kStrict,
                                 Bdf{0, 6, 0}, &core.acct(),
                                 nvme::NvmeDevice::riommuRingSizes());
    nvme::NvmeDevice ssd(sim, core, ctx.memory(), *handle);
    ssd.bringUp();

    u64 completions = 0;
    ssd.setCompletionCallback([&](u32, Status) { ++completions; });
    const PhysAddr buf = ctx.memory().allocFrame();
    core.post([&] {
        ASSERT_TRUE(ssd.submit(nvme::Opcode::kWrite, 1, 1, buf).isOk());
        ASSERT_TRUE(ssd.submit(nvme::Opcode::kWrite, 2, 1, buf).isOk());
        // The device vanishes with both commands in flight.
        ssd.surpriseUnplug();
        handle->surpriseRemove();
        ssd.removeCleanup();
    });
    sim.run();
    EXPECT_EQ(completions, 0u) << "in-flight completions died with "
                                  "the device";
    EXPECT_EQ(handle->liveMappings(), 0u);
    EXPECT_TRUE(ctx.checkHandleLeaks(*handle).clean());

    // Reattach + replug: the device serves commands again.
    ASSERT_TRUE(handle->reattach().isOk());
    core.post([&] {
        ssd.replug();
        ASSERT_TRUE(ssd.submit(nvme::Opcode::kWrite, 3, 1, buf).isOk());
    });
    sim.run();
    EXPECT_EQ(completions, 1u);
    EXPECT_TRUE(ctx.checkHandleLeaks(*handle).clean() ||
                handle->liveMappings() > 0)
        << "queues remapped after replug";
}

TEST(AhciLifecycleTest, SurpriseUnplugClearsBacklogAndReplugs)
{
    des::Simulator sim;
    dma::DmaContext ctx;
    des::Core core(sim, ctx.cost());
    auto handle = ctx.makeHandle(ProtectionMode::kStrict,
                                 Bdf{0, 5, 0}, &core.acct());
    ahci::AhciDevice disk(sim, core, ctx.memory(), *handle);
    u64 completions = 0;
    disk.setCompletionCallback([&](u32, Status) { ++completions; });
    const PhysAddr buf = ctx.memory().allocContiguous(16 * kPageSize);
    core.post([&] {
        for (u64 i = 0; i < 8; ++i)
            ASSERT_TRUE(disk.issue(false, i * 64, 4, buf).isOk());
        disk.surpriseUnplug();
        handle->surpriseRemove();
        // A vanished drive rejects new commands with a typed error.
        EXPECT_EQ(disk.issue(false, 999, 1, buf).status().code(),
                  ErrorCode::kDetached);
        disk.removeCleanup();
    });
    sim.run();
    EXPECT_EQ(completions, 0u);
    EXPECT_EQ(handle->liveMappings(), 0u);
    EXPECT_TRUE(ctx.checkHandleLeaks(*handle).clean());

    ASSERT_TRUE(handle->reattach().isOk());
    core.post([&] {
        disk.replug();
        ASSERT_TRUE(disk.issue(false, 0, 1, buf).isOk());
    });
    sim.run();
    EXPECT_EQ(completions, 1u);
}

} // namespace
} // namespace rio
