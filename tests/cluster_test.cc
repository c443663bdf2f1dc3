/**
 * @file
 * sys::Cluster + rdma::RdmaNic integration suite — the scale-out
 * fabric's correctness contract:
 *   - remote writes/reads land exactly the bytes a local DMA oracle
 *     produces, translated through the *target* machine's IOMMU;
 *   - QP lifecycle (connect / traffic / teardown, plus slot
 *     exhaustion and force-quiesce) leaves no mapping, IOTLB or
 *     rIOTLB residue, audited with checkHandleLeaks in all 7 modes;
 *   - a fleet run under composed hazards replays bit for bit (the
 *     golden_cluster check row pins the bench's JSON to an exact
 *     golden), keeps the fleet invariant suite, and an idle migration
 *     overlay leaves it untouched;
 *   - the rDEVICE descriptor-fetch model and its hot tier count
 *     fetches consistently and default to off.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>
#include <vector>

#include "dma/protection_mode.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "rdma/rdma.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"

namespace rio {
namespace {

using dma::ProtectionMode;

sys::ClusterConfig
smallConfig(ProtectionMode mode, unsigned machines = 2, u32 max_qps = 16)
{
    sys::ClusterConfig cfg;
    cfg.machines = machines;
    cfg.mode = mode;
    cfg.max_qps = max_qps;
    return cfg;
}

TEST(RdmaGeometry, RingSizesShape)
{
    const auto &p = rdma::rnicProfile();
    auto sizes = rdma::ringSizes(p, 3);
    ASSERT_EQ(sizes.size(), 7u); // CQ + 3 x (ctrl, data)
    EXPECT_EQ(sizes[0], 4u);
    for (u32 q = 0; q < 3; ++q) {
        EXPECT_EQ(sizes[rdma::ctrlRid(q)], 4u);
        EXPECT_EQ(sizes[rdma::dataRid(q)], 2 * p.sq_depth);
    }
}

TEST(Cluster, ConnectEstablishesBothEnds)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommu));
    cluster.bringUp();
    bool connected = false;
    auto res = cluster.nic(0).connect(1, [&](u32, bool ok) {
        connected = ok;
    });
    ASSERT_TRUE(res.isOk());
    cluster.run();
    EXPECT_TRUE(connected);
    EXPECT_EQ(cluster.nic(0).establishedQps(), 1u);
    EXPECT_EQ(cluster.nic(1).establishedQps(), 1u);
    EXPECT_EQ(cluster.nic(0).peerNic(res.value()), 1u);
}

/** Remote write: target MR bytes must equal the source buffer —
 * compared against a local-DMA oracle (a direct deviceWrite of the
 * same bytes through the target's own handle). */
TEST(Cluster, RemoteWriteMatchesLocalDmaOracle)
{
    for (ProtectionMode mode :
         {ProtectionMode::kRiommu, ProtectionMode::kStrict,
          ProtectionMode::kNone}) {
        SCOPED_TRACE(dma::modeName(mode));
        sys::Cluster cluster(smallConfig(mode));
        cluster.bringUp();
        auto res = cluster.nic(0).connect(1, nullptr);
        ASSERT_TRUE(res.isOk());
        const u32 qp = res.value();
        cluster.run();

        const u32 len = 512;
        const u64 roff = 256;
        std::vector<u8> pattern(len);
        for (u32 i = 0; i < len; ++i)
            pattern[i] = static_cast<u8>(i * 7 + 3);
        cluster.machine(0).ctx().memory().write(
            cluster.nic(0).srcBuffer(qp), pattern.data(), len);

        bool completed = false, comp_ok = false;
        cluster.nic(0).setCompletionCallback(
            [&](u32, u32, bool ok) { completed = true; comp_ok = ok; });
        ASSERT_TRUE(cluster.nic(0).postWrite(qp, len, roff));
        cluster.run();
        ASSERT_TRUE(completed);
        ASSERT_TRUE(comp_ok);

        const u32 peer = cluster.nic(0).peerQp(qp);
        std::vector<u8> got(len);
        cluster.machine(1).ctx().memory().read(
            cluster.nic(1).mrBuffer(peer) + roff, got.data(), len);
        EXPECT_EQ(std::memcmp(got.data(), pattern.data(), len), 0);

        // Local-DMA oracle: the same bytes pushed through the
        // target's own handle at the same MR offset must agree.
        std::vector<u8> zeros(len, 0);
        cluster.machine(1).ctx().memory().write(
            cluster.nic(1).mrBuffer(peer) + roff, zeros.data(), len);
        std::vector<u8> after(len);
        ASSERT_TRUE(cluster.handle(1)
                        .deviceWrite(cluster.nic(1).mrDeviceAddr(peer) +
                                         roff,
                                     pattern.data(), len)
                        .isOk());
        cluster.machine(1).ctx().memory().read(
            cluster.nic(1).mrBuffer(peer) + roff, after.data(), len);
        EXPECT_EQ(std::memcmp(after.data(), pattern.data(), len), 0);

        cluster.quiesce();
        EXPECT_TRUE(cluster.checkLeaks(0).clean());
        EXPECT_TRUE(cluster.checkLeaks(1).clean());
    }
}

/** Remote read pulls the peer MR's bytes into the local read buffer. */
TEST(Cluster, RemoteReadMatchesPeerMemory)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommuNc));
    cluster.bringUp();
    auto res = cluster.nic(0).connect(1, nullptr);
    ASSERT_TRUE(res.isOk());
    const u32 qp = res.value();
    cluster.run();

    const u32 len = 1024;
    const u32 peer = cluster.nic(0).peerQp(qp);
    std::vector<u8> pattern(len);
    for (u32 i = 0; i < len; ++i)
        pattern[i] = static_cast<u8>(0xA5 ^ (i * 13));
    cluster.machine(1).ctx().memory().write(
        cluster.nic(1).mrBuffer(peer), pattern.data(), len);

    bool ok = false;
    cluster.nic(0).setCompletionCallback(
        [&](u32, u32, bool good) { ok = good; });
    ASSERT_TRUE(cluster.nic(0).postRead(qp, len));
    cluster.run();
    ASSERT_TRUE(ok);

    std::vector<u8> got(len);
    cluster.machine(0).ctx().memory().read(
        cluster.nic(0).readBuffer(qp), got.data(), len);
    EXPECT_EQ(std::memcmp(got.data(), pattern.data(), len), 0);

    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** Orderly teardown releases both ends' slots and mappings. */
TEST(Cluster, TeardownFreesBothEnds)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommu));
    cluster.bringUp();
    auto res = cluster.nic(0).connect(1, nullptr);
    ASSERT_TRUE(res.isOk());
    cluster.run();
    ASSERT_EQ(cluster.nic(1).establishedQps(), 1u);

    bool closed = false;
    ASSERT_TRUE(
        cluster.nic(0)
            .teardown(res.value(), [&](u32) { closed = true; })
            .isOk());
    cluster.run();
    EXPECT_TRUE(closed);
    EXPECT_EQ(cluster.nic(0).establishedQps(), 0u);
    EXPECT_EQ(cluster.nic(1).establishedQps(), 0u);
    EXPECT_EQ(cluster.total(&rdma::RdmaStats::teardowns), 2u);

    // Only the CQs remain mapped; after shutdown nothing does.
    cluster.nic(0).shutDown();
    cluster.nic(1).shutDown();
    EXPECT_EQ(cluster.handle(0).liveMappings(), 0u);
    EXPECT_EQ(cluster.handle(1).liveMappings(), 0u);
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** Slot exhaustion rejects cleanly (no leak, no wedge). */
TEST(Cluster, SlotExhaustionRejects)
{
    auto cfg = smallConfig(ProtectionMode::kDefer, 2, /*max_qps=*/2);
    sys::Cluster cluster(cfg);
    cluster.bringUp();
    int ok_count = 0, fail_count = 0;
    // 3 connects against 2 slots: the passive side runs out first
    // (it must hold our 2 plus its own capacity), or we do.
    for (int i = 0; i < 3; ++i) {
        auto res = cluster.nic(0).connect(1, [&](u32, bool ok) {
            (ok ? ok_count : fail_count)++;
        });
        if (!res.isOk())
            ++fail_count;
    }
    cluster.run();
    EXPECT_EQ(ok_count + fail_count, 3);
    EXPECT_GE(ok_count, 2);
    EXPECT_GE(fail_count, 1);
    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** Post admission is the same for every verb: a zero-byte post, a
 * post over the verb's size ceiling and a post into a full send queue
 * are refused and each counted once in posts_blocked; every accepted
 * post completes with exactly one CQE. The payload send carries a
 * whole page, so its ceiling is 4 KB rather than max_req_bytes. */
TEST(Cluster, PostAdmissionPerVerb)
{
    sys::Cluster cluster(smallConfig(ProtectionMode::kRiommu));
    cluster.bringUp();
    auto res = cluster.nic(0).connect(1, nullptr);
    ASSERT_TRUE(res.isOk());
    const u32 qp = res.value();
    cluster.run();
    ASSERT_EQ(cluster.nic(1).establishedQps(), 1u);

    rdma::RdmaNic &nic = cluster.nic(0);
    const rdma::RdmaProfile &p = rdma::rnicProfile();
    const PhysAddr page = cluster.machine(0).ctx().memory().allocContiguous(
        kPageSize);
    u64 cqes = 0;
    nic.setCompletionCallback([&](u32, u32, bool) { ++cqes; });

    enum class Verb { kWrite, kRead, kSend };
    const auto post = [&](Verb v, u32 bytes) {
        switch (v) {
        case Verb::kWrite:
            return nic.postWrite(qp, bytes);
        case Verb::kRead:
            return nic.postRead(qp, bytes);
        case Verb::kSend:
            return nic.postSend(qp, page, bytes, /*tag=*/0);
        }
        return false;
    };
    for (Verb v : {Verb::kWrite, Verb::kRead, Verb::kSend}) {
        SCOPED_TRACE(static_cast<int>(v));
        const u32 ceiling = v == Verb::kSend ? 4096u : p.max_req_bytes;
        const auto refused = [&](u32 bytes) {
            const u64 blocked = nic.stats().posts_blocked;
            const bool ok = post(v, bytes);
            return !ok && nic.stats().posts_blocked == blocked + 1;
        };
        EXPECT_TRUE(refused(0));
        EXPECT_TRUE(refused(ceiling + 1));

        const u64 posts0 = nic.stats().posts;
        const u64 cqes0 = cqes;
        ASSERT_TRUE(post(v, ceiling));
        for (u32 i = 1; i < p.sq_depth; ++i)
            ASSERT_TRUE(post(v, 64));
        EXPECT_EQ(nic.inflightOps(), p.sq_depth);
        EXPECT_TRUE(refused(64)); // SQ full
        cluster.run();
        EXPECT_EQ(nic.stats().posts - posts0, p.sq_depth);
        EXPECT_EQ(cqes - cqes0, p.sq_depth);
        EXPECT_EQ(nic.inflightOps(), 0u);
    }
    EXPECT_EQ(nic.stats().completions, nic.stats().posts);

    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** A payload send to a NIC with no send sink is refused at the target
 * like a faulting write: an error CQE at the initiator, one remote
 * fault at the target, and the op's data-ring mapping released. A
 * duplicate of it is answered with the same NAK, never an ACK. */
TEST(Cluster, SendWithoutSinkCompletesInError)
{
    sys::ClusterConfig cfg = smallConfig(ProtectionMode::kRiommu);
    cfg.reliability.enabled = true; // duplicates need PSN state
    sys::Cluster cluster(cfg);
    cluster.bringUp();
    auto res = cluster.nic(0).connect(1, nullptr);
    ASSERT_TRUE(res.isOk());
    const u32 qp = res.value();
    cluster.run();

    const PhysAddr page = cluster.machine(0).ctx().memory().allocContiguous(
        kPageSize);
    int cqes = 0;
    bool comp_ok = true;
    cluster.nic(0).setCompletionCallback([&](u32, u32, bool ok) {
        ++cqes;
        comp_ok = ok;
    });
    const u64 maps_before = cluster.handle(0).liveMappings();
    const u64 faults_before = cluster.nic(1).stats().remote_faults;
    ASSERT_TRUE(cluster.nic(0).postSend(qp, page, kPageSize, /*tag=*/7));
    cluster.run();
    EXPECT_EQ(cqes, 1);
    EXPECT_FALSE(comp_ok);
    EXPECT_EQ(cluster.nic(0).stats().comp_errors, 1u);
    EXPECT_EQ(cluster.nic(1).stats().remote_faults, faults_before + 1);
    EXPECT_EQ(cluster.handle(0).liveMappings(), maps_before);

    rdma::WireMsg dup;
    dup.kind = rdma::MsgKind::kSend;
    dup.dst_nic = 1;
    dup.src_qp = qp;
    dup.dst_qp = cluster.nic(0).peerQp(qp);
    dup.rkey = cluster.nic(1).mrDeviceAddr(dup.dst_qp);
    dup.len = kPageSize;
    dup.payload.assign(kPageSize, 0);
    cluster.nic(1).fromWire(dup);
    cluster.run();
    EXPECT_EQ(cluster.nic(1).stats().dup_requests, 1u);
    EXPECT_EQ(cluster.nic(1).stats().remote_faults, faults_before + 2);
    EXPECT_EQ(cqes, 1);

    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** A recycled QP slot restarts its WQE index and PSN at the values its
 * previous occupant used, so traffic of that earlier incarnation must
 * never match the new one. A send addressed to the dead slot, or to
 * its new occupant, is refused undelivered (the sink never runs and
 * the new QP's sequence is untouched), and a reply echoing the old
 * requester incarnation is stale even where its WQE slot and PSN
 * match a live op. */
TEST(Cluster, EarlierIncarnationNeverMatchesARecycledQp)
{
    sys::ClusterConfig cfg = smallConfig(ProtectionMode::kRiommu);
    cfg.reliability.enabled = true;
    sys::Cluster cluster(cfg);
    cluster.bringUp();
    rdma::RdmaNic &a = cluster.nic(0);
    rdma::RdmaNic &b = cluster.nic(1);
    int delivered = 0, cqes_ok = 0;
    b.setSendSink([&](const rdma::WireMsg &) {
        ++delivered;
        return Status::ok();
    });
    a.setCompletionCallback([&](u32, u32, bool ok) { cqes_ok += ok; });
    const u32 qp = a.connect(1, nullptr).value();
    cluster.run();
    const u32 peer = a.peerQp(qp);

    // A send of the first incarnation (0): PSN 0, the peer's MR rkey.
    rdma::WireMsg stale;
    stale.kind = rdma::MsgKind::kSend;
    stale.dst_nic = 1;
    stale.src_qp = qp;
    stale.dst_qp = peer;
    stale.rkey = b.mrDeviceAddr(peer);
    stale.len = 64;
    stale.payload.assign(64, 0xAB);

    // At the dead slot, then at its new occupant (both ends recycle).
    ASSERT_TRUE(a.abortQp(qp).isOk());
    cluster.run();
    b.fromWire(stale);
    cluster.run();
    ASSERT_EQ(a.connect(1, nullptr).value(), qp);
    cluster.run();
    ASSERT_EQ(a.peerQp(qp), peer);
    stale.rkey = b.mrDeviceAddr(peer);
    b.fromWire(stale);
    cluster.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(b.stats().late_arrivals, 2u);
    // Refused before any translation: neither landed nor faulted.
    EXPECT_EQ(b.stats().late_faulted + b.stats().late_landed, 0u);

    // The new incarnation's own PSN 0 is still the one expected.
    const PhysAddr page =
        cluster.machine(0).ctx().memory().allocContiguous(kPageSize);
    ASSERT_TRUE(a.postSend(qp, page, 64, /*tag=*/7));
    cluster.run();
    EXPECT_EQ(delivered, 1);

    // A NAK of the old incarnation for the next send's WQE slot and
    // PSN, arriving after the fetch but before the real ACK: were it
    // matched, the send would complete in error.
    rdma::WireMsg nak;
    nak.kind = rdma::MsgKind::kNak;
    nak.ok = false;
    nak.src_nic = 1;
    nak.dst_qp = qp;
    nak.wqe = a.sqTail(qp);
    nak.psn = 1;
    const u64 stale_before = a.stats().stale_acks;
    ASSERT_TRUE(a.postSend(qp, page, 64, /*tag=*/7));
    cluster.lane(0).sim().scheduleAfter(1000, [&] { a.fromWire(nak); });
    cluster.run();
    EXPECT_EQ(a.stats().stale_acks, stale_before + 1);
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(cqes_ok, 2);

    cluster.quiesce();
    EXPECT_TRUE(cluster.checkLeaks(0).clean());
    EXPECT_TRUE(cluster.checkLeaks(1).clean());
}

/** The hostile-wire headline, pinned deterministically per mode: a
 * delayed duplicate of an already-acked write arrives after its QP
 * was torn down (rings unmapped). The protecting modes must stop it
 * at the target-side IOMMU — a FaultRecord, no memory write. The
 * defer modes instead expose their stale window: the revoked
 * translation is still cached until the batched flush, so the stray
 * lands; once the flush runs, a second copy faults like the rest.
 * Mode none has no fault machinery — the stray always lands. */
TEST(Cluster, LateArrivalAfterTeardown)
{
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        SCOPED_TRACE(dma::modeName(mode));
        sys::ClusterConfig cfg = smallConfig(mode);
        cfg.reliability.enabled = true; // late detection needs PSN state
        sys::Cluster cluster(cfg);
        cluster.bringUp();
        auto res = cluster.nic(0).connect(1, nullptr);
        ASSERT_TRUE(res.isOk());
        const u32 qp = res.value();
        cluster.run();

        // A legit write first: it warms the target translation (the
        // defer window needs a cached IOTLB entry) and supplies the
        // PSN/rkey the wire duplicate will replay.
        const u32 len = 256;
        std::vector<u8> pattern(len);
        for (u32 i = 0; i < len; ++i)
            pattern[i] = static_cast<u8>(i ^ 0x5A);
        cluster.machine(0).ctx().memory().write(
            cluster.nic(0).srcBuffer(qp), pattern.data(), len);
        bool ok = false;
        cluster.nic(0).setCompletionCallback(
            [&](u32, u32, bool good) { ok = good; });
        ASSERT_TRUE(cluster.nic(0).postWrite(qp, len, 0));
        cluster.run();
        ASSERT_TRUE(ok);

        // Capture the packet's wire-visible identity before teardown
        // wipes the slot.
        const u32 peer = cluster.nic(0).peerQp(qp);
        const u64 stale_rkey = cluster.nic(1).mrDeviceAddr(peer);
        const PhysAddr mr_pa = cluster.nic(1).mrBuffer(peer);

        ASSERT_TRUE(cluster.nic(0).teardown(qp, nullptr).isOk());
        cluster.run();
        ASSERT_EQ(cluster.nic(1).establishedQps(), 0u);

        // Zero the old MR so a landing is unambiguous.
        std::vector<u8> zeros(len, 0);
        cluster.machine(1).ctx().memory().write(mr_pa, zeros.data(),
                                                len);

        auto strayWrite = [&](u8 fill) {
            rdma::WireMsg m;
            m.kind = rdma::MsgKind::kWrite;
            m.src_nic = 0;
            m.src_qp = qp;
            m.dst_qp = peer;
            m.wqe = 0;
            m.psn = 0; // the acked write's original sequence number
            m.rkey = stale_rkey;
            m.offset = 0;
            m.len = len;
            m.payload.assign(len, fill);
            return m;
        };
        auto faultRecords = [&] {
            return cluster.machine(1).ctx().iommu().faults().size() +
                   cluster.machine(1).ctx().riommu().faults().size();
        };

        const size_t faults_before = faultRecords();
        cluster.nic(1).fromWire(strayWrite(0xEE));
        cluster.run(); // drain the ack/nak back to the dead requester

        EXPECT_EQ(cluster.nic(1).stats().late_arrivals, 1u);
        std::vector<u8> got(len);
        cluster.machine(1).ctx().memory().read(mr_pa, got.data(), len);
        const std::vector<u8> landed(len, 0xEE);

        if (mode == ProtectionMode::kNone) {
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 1u);
            EXPECT_EQ(cluster.nic(1).stats().late_faulted, 0u);
            EXPECT_EQ(got, landed); // nothing there to stop it
            EXPECT_EQ(faultRecords(), faults_before);
        } else if (mode == ProtectionMode::kDefer ||
                   mode == ProtectionMode::kDeferPlus) {
            // The stale window, caught red-handed: the PTE is gone
            // but the IOTLB entry survives until the batched flush.
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 1u);
            EXPECT_EQ(got, landed);
            // Once the deferred flush finally runs, a second copy of
            // the same stray faults like the strict modes.
            cluster.machine(1).ctx().iommu().flushIotlb();
            cluster.nic(1).fromWire(strayWrite(0xDD));
            cluster.run();
            EXPECT_EQ(cluster.nic(1).stats().late_faulted, 1u);
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 1u);
            cluster.machine(1).ctx().memory().read(mr_pa, got.data(),
                                                   len);
            EXPECT_EQ(got, landed); // 0xDD never hit memory
            EXPECT_GT(faultRecords(), faults_before);
        } else {
            // strict / strict+ / riommu- / riommu: no stale window.
            EXPECT_EQ(cluster.nic(1).stats().late_faulted, 1u);
            EXPECT_EQ(cluster.nic(1).stats().late_landed, 0u);
            EXPECT_EQ(got, zeros); // memory untouched
            EXPECT_GT(faultRecords(), faults_before);
        }

        cluster.quiesce();
        EXPECT_TRUE(cluster.checkLeaks(0).clean());
        EXPECT_TRUE(cluster.checkLeaks(1).clean());
    }
}

/** One fleet run, printed: `run` holds the FleetReport fields and
 * each lane's clock and event count, `cycles` each machine's
 * whole-run core-0 cycle total. */
struct FleetPrint
{
    std::string run;
    std::string cycles;
};

using FleetTweak =
    std::function<void(sys::ClusterConfig &, workloads::FleetParams &)>;

/** @p tweak edits the run's config and params last, before the build;
 * the run must keep the fleet invariant suite. */
FleetPrint
fleetFingerprint(const FleetTweak &tweak)
{
    workloads::FleetParams p;
    p.connections = 12;
    p.warmup_ops = 30;
    p.measure_ops = 150;
    p.incast_period_ops = 40;
    p.incast_burst = 4;
    p.churn_period_ops = 60;
    p.seed = 7;
    sys::ClusterConfig cfg;
    cfg.machines = 3;
    cfg.mode = ProtectionMode::kRiommu;
    cfg.rdcache.model_fetch = true;
    cfg.rdcache.hot_entries = 64;
    tweak(cfg, p);
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    sys::Cluster cluster(cfg);
    auto rep = runFleet(cluster, p);
    EXPECT_EQ(workloads::fleetViolations(cfg, p, rep), "");

    std::ostringstream os, cycles;
    os << rep.measured_ops << '/' << rep.measured_cycles << '/'
       << rep.total_ops << '/' << rep.posts << '/'
       << rep.posts_blocked << '/' << rep.comp_errors << '/'
       << rep.remote_faults << '/' << rep.local_fault_drops << '/'
       << rep.connects << '/' << rep.teardowns << '/' << rep.eob_unmaps
       << '/' << rep.completions << '/' << rep.riotlb.lookups << '/'
       << rep.riotlb.walks << '/' << rep.riotlb.invalidations << '/'
       << rep.rdcache.fetches << '/' << rep.rdcache.hot_hits << '/'
       << rep.retransmits << '/' << rep.rto_fires << '/' << rep.nak_seq
       << '/' << rep.qp_errors << '/' << rep.qp_error_recovered << '/'
       << rep.late_arrivals << '/' << rep.late_faulted << '/'
       << rep.late_landed << '/' << rep.wire_drops << '/'
       << rep.wire_dups << '/' << rep.wire_delays << '/'
       << rep.wire_congestion_drops << '/' << rep.wire_peak_queue << '/'
       << rep.p50_latency_ns << '/' << rep.p99_latency_ns << '/'
       << rep.end_ns << '/' << rep.leaks_clean;
    for (unsigned m = 0; m < cluster.size(); ++m) {
        os << '|' << cluster.lane(m).sim().now() << ':'
           << cluster.lane(m).sim().eventsRun();
        cycles << '|' << cluster.machine(m).acct(0).total();
    }
    return {os.str(), cycles.str()};
}

/** The fleet driver's determinism gate: a run composing every hazard
 * — fault injection, a lossy wire with duplicates and stragglers, a
 * bounded ingress port, hard-abort churn, incast — replays bit for
 * bit, down to per-lane event counts, in all 7 modes. (Coupled lanes
 * run inline at any thread count, so a replay is the whole contract.) */
TEST(Fleet, ComposedHazardsReplayIdentically)
{
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        SCOPED_TRACE(dma::modeName(mode));
        const FleetTweak composed = [mode](sys::ClusterConfig &c,
                                           workloads::FleetParams &p) {
            c.mode = mode;
            c.fault_rate = 0.02;
            c.fault_seed = 5;
            c.wire = sys::stormWire(0.02);
            c.wire.ingress_cap = 16;
            c.reliability.enabled = true;
            p.churn_abort_fraction = 0.5;
        };
        const FleetPrint one = fleetFingerprint(composed);
        const FleetPrint two = fleetFingerprint(composed);
        EXPECT_EQ(one.run, two.run);
        EXPECT_EQ(one.cycles, two.cycles);
    }
}

/** The migration overlay is inert until a Migrator runs: a cluster
 * built with `migration = true` replays the default cluster's fleet
 * run report field by report field and event for event, in every
 * mode. Whole-run cycles differ by design: each machine's hypervisor
 * NIC comes up on core 0, outside the measurement window. */
TEST(Fleet, IdleMigrationOverlayIsInert)
{
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        SCOPED_TRACE(dma::modeName(mode));
        const FleetPrint base = fleetFingerprint(
            [mode](sys::ClusterConfig &c, workloads::FleetParams &) {
                c.mode = mode;
            });
        const FleetPrint overlay = fleetFingerprint(
            [mode](sys::ClusterConfig &c, workloads::FleetParams &) {
                c.mode = mode;
                c.migration = true;
            });
        EXPECT_EQ(base.run, overlay.run);
        // ... which proves the overlay was built (mode none maps
        // for free, so its bring-up costs nothing).
        if (mode != ProtectionMode::kNone) {
            EXPECT_NE(base.cycles, overlay.cycles);
        }
    }
}

/** The descriptor-fetch model defaults off and, when on, counts
 * consistently; the hot tier absorbs Zipf-hot rings. */
TEST(Fleet, RdCacheAblationCounts)
{
    workloads::FleetParams p;
    p.connections = 16;
    p.warmup_ops = 20;
    p.measure_ops = 150;

    sys::ClusterConfig off = smallConfig(ProtectionMode::kRiommu, 2);
    off.max_qps = workloads::fleetMaxQps(p, off.machines);
    sys::Cluster c_off(off);
    auto rep_off = runFleet(c_off, p);
    EXPECT_EQ(rep_off.rdcache.fetches, 0u);

    sys::ClusterConfig flat = off;
    flat.rdcache.model_fetch = true; // fetch model, no hot tier
    sys::Cluster c_flat(flat);
    auto rep_flat = runFleet(c_flat, p);
    EXPECT_GT(rep_flat.rdcache.fetches, 0u);
    EXPECT_EQ(rep_flat.rdcache.hot_hits, 0u);
    EXPECT_EQ(rep_flat.rdcache.hot_misses, rep_flat.rdcache.fetches);

    sys::ClusterConfig tier = off;
    tier.rdcache.model_fetch = true;
    tier.rdcache.hot_entries = 256;
    sys::Cluster c_tier(tier);
    auto rep_tier = runFleet(c_tier, p);
    EXPECT_EQ(rep_tier.rdcache.hot_hits + rep_tier.rdcache.hot_misses,
              rep_tier.rdcache.fetches);
    EXPECT_GT(rep_tier.rdcache.hot_hits, 0u);
    // The fetch model must not perturb driver-side cycles: it is a
    // hardware-walk effect, reported via counters.
    EXPECT_DOUBLE_EQ(rep_flat.cycles_per_op, rep_off.cycles_per_op);
    EXPECT_DOUBLE_EQ(rep_tier.cycles_per_op, rep_off.cycles_per_op);
}

/** Hostile-wire fleet shape shared by the tracing tests: enough loss
 * and churn that go-back-N replays, duplicate deliveries and QP
 * errors all occur, small enough to stay fast. */
workloads::FleetReport
runTracedStorm()
{
    workloads::FleetParams p;
    p.connections = 8;
    p.warmup_ops = 10;
    p.measure_ops = 200;
    p.churn_period_ops = 25;
    p.churn_abort_fraction = 0.5;
    p.seed = 3;
    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.mode = ProtectionMode::kRiommu;
    cfg.wire.drop_rate = 0.05;
    cfg.wire.dup_rate = 0.15;
    cfg.wire.delay_rate = 0.5;
    cfg.wire.delay_max_ns = 60000;
    cfg.reliability.enabled = true;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    sys::Cluster cluster(cfg);
    auto rep = runFleet(cluster, p);
    EXPECT_EQ(workloads::fleetViolations(cfg, p, rep), "");
    return rep;
}

/**
 * Span identity under the hostile wire: duplicate deliveries and
 * go-back-N replays must re-attach to the ORIGINAL op's trace id —
 * never mint a fresh one — and every trace closes with exactly one
 * terminal CQE span. This is the invariant that makes a stitched
 * cross-machine span tree readable: retransmit episodes show up as
 * child instants on the op that suffered them.
 */
TEST(Tracing, SpanIdentityUnderHostileWire)
{
    obs::timeline().clear();
    obs::timeline().setCapacity(1u << 20); // retain every event
    obs::timeline().setRecording(true);
    const auto rep = runTracedStorm();
    obs::timeline().setRecording(false);
    ASSERT_GT(rep.retransmits, 0u) << "storm must actually replay";
    ASSERT_GT(rep.wire_dups, 0u) << "storm must actually duplicate";

    std::map<u64, u64> posts, cqes;
    u64 rtx_on_known_trace = 0, orphan_children = 0, cqe_events = 0;
    for (const auto &[key, events] : obs::timeline().tracks()) {
        (void)key;
        for (const obs::Event &e : events) {
            if (e.kind == obs::Ev::kOpPost)
                ++posts[e.trace];
            else if (e.kind == obs::Ev::kOpCqe) {
                ++cqes[e.trace];
                ++cqe_events;
            }
        }
    }
    for (const auto &[key, events] : obs::timeline().tracks()) {
        (void)key;
        for (const obs::Event &e : events) {
            if (e.kind == obs::Ev::kRetransmit) {
                // A replay episode rides the original op's trace.
                ASSERT_NE(e.trace, 0u);
                if (posts.count(e.trace))
                    ++rtx_on_known_trace;
            } else if (e.kind == obs::Ev::kWireTx ||
                       e.kind == obs::Ev::kIngressQ) {
                if (!posts.count(e.trace))
                    ++orphan_children;
            }
        }
    }
    EXPECT_GT(posts.size(), 0u);
    for (const auto &[trace, n] : posts) {
        EXPECT_NE(trace, 0u) << "every post allocates a trace";
        EXPECT_EQ(n, 1u) << "trace ids are never reused across posts";
    }
    for (const auto &[trace, n] : cqes) {
        EXPECT_EQ(n, 1u)
            << "replays and duplicates must not double-complete trace 0x"
            << std::hex << trace;
        EXPECT_TRUE(posts.count(trace))
            << "a CQE span without its post span";
    }
    EXPECT_EQ(cqe_events, rep.completions)
        << "exactly one terminal CQE span per completed op";
    EXPECT_GT(rtx_on_known_trace, 0u)
        << "at least one retransmit child attached to a live op span";
    EXPECT_EQ(orphan_children, 0u)
        << "wire/ingress spans must all belong to a posted op";
    obs::timeline().clear();
}

std::string
timelineFingerprint()
{
    obs::timeline().clear();
    obs::timeline().setCapacity(1u << 20);
    obs::timeline().setRecording(true);
    runTracedStorm();
    obs::timeline().setRecording(false);
    std::ostringstream os;
    for (const auto &[key, events] : obs::timeline().tracks()) {
        os << "track " << key << "\n";
        for (const obs::Event &e : events) {
            // Flight-dump markers carry the process-wide dump ordinal
            // in arg — a host-side count that keeps growing across
            // runs in one process. Every simulated event (including
            // the marker's virtual time and trace) replays; the
            // ordinal alone does not.
            if (e.kind == obs::Ev::kFlightDump)
                continue;
            os << static_cast<int>(e.kind) << ' ' << e.t << ' '
               << e.pid << ':' << e.tid << ' ' << e.bdf << '/' << e.rid
               << ' ' << e.arg << ' ' << e.arg2 << ' ' << e.dur_ns
               << ' ' << e.id << " 0x" << std::hex << e.trace
               << std::dec << '\n';
        }
    }
    obs::timeline().clear();
    return os.str();
}

/** The tracing determinism gate: with tracing fully on, the entire
 * event timeline — ids, traces, timestamps, order — replays byte for
 * byte. Trace ids come from lane-confined counters, never a shared
 * atomic. */
TEST(Tracing, TimelineReplaysByteIdentically)
{
    const std::string one = timelineFingerprint();
    const std::string two = timelineFingerprint();
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, two);
}

/** Exact SLO records cover every completion (the fleet suite's
 * slo-coverage rule, checked inside runTracedStorm while recording is
 * on), merge deterministically across machines, and attribute the
 * tail to a real category. */
TEST(Tracing, SloReportCoversEveryCompletion)
{
    obs::setSloRecording(true);
    const auto rep = runTracedStorm();
    obs::setSloRecording(false);
    ASSERT_TRUE(rep.slo_valid);
    EXPECT_GT(rep.slo.p99, rep.slo.p50);
    EXPECT_GE(rep.slo.p999, rep.slo.p99);
    EXPECT_GE(rep.slo.max, rep.slo.p999);
    EXPECT_GT(rep.slo.tail_ops, 0u);
    EXPECT_GT(rep.slo.top_cat_share, 0.0);
    u64 total_cycles = 0;
    for (u64 c : rep.slo.all_cat_cycles)
        total_cycles += c;
    EXPECT_GT(total_cycles, 0u) << "per-Cat attribution present";
}

/** Fleet smoke under fault injection without the reliability layer,
 * churn and incast, in all 7 modes: every error CQE is a NAK or a
 * local drop (the fleet suite's error-accounting rule), the closed
 * loop finishes its window, and every mode quiesces leak-free. (The
 * clean all-mode fleet is golden_cluster's, through the same suite.) */
TEST(Fleet, FaultInjectionDrainsClean)
{
    for (ProtectionMode mode : dma::kEvaluatedModes) {
        SCOPED_TRACE(dma::modeName(mode));
        workloads::FleetParams p;
        p.connections = 8;
        p.warmup_ops = 10;
        p.measure_ops = 80;
        p.churn_period_ops = 30;
        p.incast_period_ops = 25;
        p.incast_burst = 3;
        sys::ClusterConfig cfg = smallConfig(mode, 2);
        cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
        cfg.fault_rate = 0.02;
        cfg.fault_seed = 11;
        sys::Cluster cluster(cfg);
        auto rep = runFleet(cluster, p);
        EXPECT_EQ(workloads::fleetViolations(cfg, p, rep), "");
        EXPECT_EQ(rep.measured_ops, 2 * p.measure_ops);
        EXPECT_GT(rep.cycles_per_op, 0.0);
        EXPECT_GT(rep.comp_errors, 0u);
        EXPECT_GT(rep.teardowns, 0u);
        if (dma::modeUsesRiommu(mode)) {
            EXPECT_GT(rep.riotlb.lookups, 0u);
            EXPECT_GT(rep.eob_unmaps, 0u);
            EXPECT_GE(rep.avg_burst, 1.0);
        }
    }
}

} // namespace
} // namespace rio
