/**
 * @file
 * Integration tests over the full simulation stack: the workload
 * drivers reproduce the paper's qualitative results as testable
 * properties — mode ordering, calibration anchors, line-rate capping,
 * latency ordering, and bit-for-bit determinism — plus the invariant
 * suites every fleet and migration run is judged by.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "workloads/fleet.h"
#include "workloads/migration.h"
#include "workloads/netperf_rr.h"
#include "workloads/storage.h"
#include "workloads/request_load.h"
#include "workloads/stream.h"

namespace rio::workloads {
namespace {

using dma::ProtectionMode;

StreamParams
quickStream(const nic::NicProfile &profile)
{
    StreamParams p = streamParamsFor(profile);
    p.measure_packets = 6000;
    p.warmup_packets = 1500;
    return p;
}

TEST(StreamTest, NoneModeHitsCalibratedCyclesPerPacket)
{
    const auto r = runStream(ProtectionMode::kNone, nic::mlxProfile(),
                             quickStream(nic::mlxProfile()));
    // Paper Figure 7: C_none = 1,816 cycles/packet.
    EXPECT_NEAR(r.cycles_per_packet, 1816.0, 40.0);
    EXPECT_GT(r.throughput_gbps, 15.0);
    EXPECT_GT(r.cpu, 0.95) << "mlx stream is CPU-bound";
}

TEST(StreamTest, ThroughputFollowsTheInverseCycleModel)
{
    // Figure 8's law: throughput ~ 1/C.
    const auto none = runStream(ProtectionMode::kNone, nic::mlxProfile(),
                                quickStream(nic::mlxProfile()));
    const auto strict = runStream(ProtectionMode::kStrict,
                                  nic::mlxProfile(),
                                  quickStream(nic::mlxProfile()));
    const double ratio_tput = none.throughput_gbps / strict.throughput_gbps;
    const double ratio_c = strict.cycles_per_packet / none.cycles_per_packet;
    EXPECT_NEAR(ratio_tput, ratio_c, 0.15 * ratio_c);
}

TEST(StreamTest, ModeOrderingMatchesThePaper)
{
    // Paper Fig. 12 mlx/stream: strict < strict+ < defer < defer+ <
    // riommu- < riommu < none.
    const ProtectionMode order[] = {
        ProtectionMode::kStrict,   ProtectionMode::kStrictPlus,
        ProtectionMode::kDefer,    ProtectionMode::kDeferPlus,
        ProtectionMode::kRiommuNc, ProtectionMode::kRiommu,
        ProtectionMode::kNone};
    double prev = 0;
    for (ProtectionMode mode : order) {
        const auto r = runStream(mode, nic::mlxProfile(),
                                 quickStream(nic::mlxProfile()));
        EXPECT_GT(r.throughput_gbps, prev)
            << dma::modeName(mode) << " must beat the previous mode";
        prev = r.throughput_gbps;
    }
}

TEST(StreamTest, RiommuVsStrictGapIsLarge)
{
    const auto strict = runStream(ProtectionMode::kStrict,
                                  nic::mlxProfile(),
                                  quickStream(nic::mlxProfile()));
    const auto riommu = runStream(ProtectionMode::kRiommu,
                                  nic::mlxProfile(),
                                  quickStream(nic::mlxProfile()));
    // Paper: 7.56x. Require the right order of magnitude.
    EXPECT_GT(riommu.throughput_gbps / strict.throughput_gbps, 4.0);
    EXPECT_LT(riommu.throughput_gbps / strict.throughput_gbps, 12.0);
}

TEST(StreamTest, BrcmSaturatesLineRateExceptStrict)
{
    // Paper Fig. 12 bottom/left: all modes but strict reach 10 GbE
    // line rate and CPU consumption becomes the metric. Our brcm
    // calibration reproduces that for defer+/riommu/none (plain
    // defer lands at ~96% of line rate; see EXPERIMENTS.md).
    double prev_cpu = 0;
    for (ProtectionMode mode :
         {ProtectionMode::kNone, ProtectionMode::kRiommu,
          ProtectionMode::kDeferPlus}) {
        const auto r = runStream(mode, nic::brcmProfile(),
                                 quickStream(nic::brcmProfile()));
        EXPECT_GT(r.throughput_gbps, 9.0) << dma::modeName(mode);
        EXPECT_LT(r.cpu, 0.97) << dma::modeName(mode);
        EXPECT_GT(r.cpu, prev_cpu) << dma::modeName(mode)
                                   << ": CPU is the differentiator";
        prev_cpu = r.cpu;
    }
    const auto strict = runStream(ProtectionMode::kStrict,
                                  nic::brcmProfile(),
                                  quickStream(nic::brcmProfile()));
    EXPECT_LT(strict.throughput_gbps, 8.0)
        << "strict cannot reach line rate";
    EXPECT_GT(strict.cpu, 0.99);
}

TEST(StreamTest, DeterministicAcrossRuns)
{
    const auto a = runStream(ProtectionMode::kStrict, nic::mlxProfile(),
                             quickStream(nic::mlxProfile()));
    const auto b = runStream(ProtectionMode::kStrict, nic::mlxProfile(),
                             quickStream(nic::mlxProfile()));
    EXPECT_EQ(a.acct.total(), b.acct.total());
    EXPECT_DOUBLE_EQ(a.throughput_gbps, b.throughput_gbps);
    EXPECT_EQ(a.nic.tx_irqs, b.nic.tx_irqs);
}

TEST(StreamTest, NoDmaFaultsInHealthyRuns)
{
    for (ProtectionMode mode :
         {ProtectionMode::kStrict, ProtectionMode::kDefer,
          ProtectionMode::kRiommu, ProtectionMode::kNone}) {
        const auto r = runStream(mode, nic::mlxProfile(),
                                 quickStream(nic::mlxProfile()));
        EXPECT_EQ(r.nic.dma_faults, 0u) << dma::modeName(mode);
        EXPECT_EQ(r.nic.rx_dropped, 0u) << dma::modeName(mode);
    }
}

TEST(RrTest, RttOrderingAndMagnitude)
{
    RrParams p = rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 1500;
    p.warmup_transactions = 200;
    const auto none =
        runNetperfRr(ProtectionMode::kNone, nic::mlxProfile(), p);
    const auto strict =
        runNetperfRr(ProtectionMode::kStrict, nic::mlxProfile(), p);
    const auto riommu =
        runNetperfRr(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    const double rtt_none = 1e6 / none.transactions_per_sec;
    const double rtt_strict = 1e6 / strict.transactions_per_sec;
    const double rtt_riommu = 1e6 / riommu.transactions_per_sec;
    // Paper Table 3 (mlx): none 13.4, riommu 13.9, strict 17.3 us.
    EXPECT_NEAR(rtt_none, 13.4, 3.0);
    EXPECT_GT(rtt_strict, rtt_riommu);
    EXPECT_GT(rtt_riommu, rtt_none);
    EXPECT_LT(strict.cpu, 0.5) << "RR leaves the CPU mostly idle";
}

TEST(RrTest, PinnedWindowResults)
{
    // Exact results of a short mlx ping-pong, single- and two-flow.
    // No golden file covers RR at this precision (the Table 3 and
    // Figure 12 JSON round to 1-2 decimals), so a change in the RR
    // driver that moves any of these values is a behaviour change.
    RrParams p = rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 400;
    p.warmup_transactions = 50;
    const auto strict =
        runNetperfRr(ProtectionMode::kStrict, nic::mlxProfile(), p);
    EXPECT_EQ(strict.acct.total(), 2617600u);
    EXPECT_EQ(strict.duration_s, 6382400 * 1e-9);
    const auto riommu =
        runNetperfRr(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    EXPECT_EQ(riommu.acct.total(), 1980000u);
    EXPECT_EQ(riommu.duration_s, 5971200 * 1e-9);

    const auto two =
        runRrScaling(ProtectionMode::kStrict, nic::mlxProfile(), 2, p);
    EXPECT_EQ(two.cycles_per_packet, 6544.0);
    EXPECT_EQ(two.iova_lock.acquisitions, 11924u);
}

TEST(RequestLoadTest, ApacheOneKIsCpuBoundAndModeInsensitive)
{
    RequestLoadParams p = apacheParams(1024);
    p.measure_requests = 800;
    p.warmup_requests = 100;
    const auto none =
        runRequestLoad(ProtectionMode::kNone, nic::mlxProfile(), p);
    const auto riommu =
        runRequestLoad(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    // Paper: ~12K requests/s, riommu within ~0.9x of none.
    EXPECT_NEAR(none.transactions_per_sec, 12000.0, 2500.0);
    EXPECT_GT(riommu.transactions_per_sec,
              0.8 * none.transactions_per_sec);
    EXPECT_GT(none.cpu, 0.9);
}

TEST(RequestLoadTest, ApacheOneMBehavesLikeStream)
{
    RequestLoadParams p = apacheParams(u64{1} << 20);
    p.measure_requests = 120;
    p.warmup_requests = 20;
    const auto strict =
        runRequestLoad(ProtectionMode::kStrict, nic::mlxProfile(), p);
    const auto riommu =
        runRequestLoad(ProtectionMode::kRiommu, nic::mlxProfile(), p);
    EXPECT_GT(riommu.throughput_gbps, 2.0 * strict.throughput_gbps)
        << "1MB responses are throughput-bound (paper: 5.8x)";
}

TEST(RequestLoadTest, MemcachedOrderOfMagnitudeAboveApache)
{
    RequestLoadParams apache = apacheParams(1024);
    apache.measure_requests = 600;
    apache.warmup_requests = 100;
    RequestLoadParams mc = memcachedParams();
    mc.measure_requests = 5000;
    mc.warmup_requests = 600;
    const auto a =
        runRequestLoad(ProtectionMode::kNone, nic::mlxProfile(), apache);
    const auto m =
        runRequestLoad(ProtectionMode::kNone, nic::mlxProfile(), mc);
    EXPECT_GT(m.transactions_per_sec, 6.0 * a.transactions_per_sec)
        << "paper: memcached is ~an order of magnitude above apache-1K";
}

TEST(RequestLoadTest, SetsAndGetsBothFlow)
{
    RequestLoadParams mc = memcachedParams();
    mc.measure_requests = 2000;
    mc.warmup_requests = 200;
    const auto r =
        runRequestLoad(ProtectionMode::kRiommu, nic::mlxProfile(), mc);
    EXPECT_EQ(r.nic.dma_faults, 0u);
    EXPECT_GT(r.transactions_per_sec, 0.0);
}

TEST(StorageTest, DeviceBoundIopsEqualAcrossModes)
{
    // Sec. 4 applicability: on a 20 us flash device the SSD is the
    // bottleneck, so protection costs CPU, not IOPS.
    workloads::StorageParams p;
    p.measure_ios = 4000;
    p.warmup_ios = 400;
    const auto strict = runStorage(ProtectionMode::kStrict, p);
    const auto riommu = runStorage(ProtectionMode::kRiommu, p);
    const auto none = runStorage(ProtectionMode::kNone, p);
    EXPECT_NEAR(strict.transactions_per_sec, none.transactions_per_sec,
                0.02 * none.transactions_per_sec);
    EXPECT_NEAR(riommu.transactions_per_sec, none.transactions_per_sec,
                0.02 * none.transactions_per_sec);
    EXPECT_GT(strict.cpu, riommu.cpu);
    EXPECT_GT(riommu.cpu, none.cpu);
}

TEST(StorageTest, ExtremeDeviceExposesStrictOverhead)
{
    workloads::StorageParams p;
    p.measure_ios = 6000;
    p.warmup_ios = 600;
    p.device.access_latency_ns = 1200;
    p.device.bandwidth_gbps = 60.0;
    p.device.irq_batch = 4;
    p.device.irq_delay_ns = 1000;
    const auto strict = runStorage(ProtectionMode::kStrict, p);
    const auto riommu = runStorage(ProtectionMode::kRiommu, p);
    EXPECT_GT(riommu.transactions_per_sec,
              1.2 * strict.transactions_per_sec)
        << "on a microsecond-class SSD, strict's per-I/O cycles cap IOPS";
}

/** Property sweep: on every (mode, profile), stream runs clean and
 * the safe modes never beat none. */
class StreamSweep
    : public ::testing::TestWithParam<std::tuple<ProtectionMode, bool>>
{
};

TEST_P(StreamSweep, CleanAndBoundedByNone)
{
    auto [mode, use_brcm] = GetParam();
    const nic::NicProfile &profile =
        use_brcm ? nic::brcmProfile() : nic::mlxProfile();
    StreamParams p = quickStream(profile);
    p.measure_packets = 3000;
    p.warmup_packets = 800;
    const auto r = runStream(mode, profile, p);
    const auto none = runStream(ProtectionMode::kNone, profile, p);
    EXPECT_EQ(r.nic.dma_faults, 0u);
    EXPECT_LE(r.throughput_gbps, none.throughput_gbps * 1.02)
        << "protection cannot make things faster";
    EXPECT_GT(r.throughput_gbps, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamSweep,
    ::testing::Combine(
        ::testing::Values(ProtectionMode::kStrict,
                          ProtectionMode::kStrictPlus,
                          ProtectionMode::kDefer,
                          ProtectionMode::kDeferPlus,
                          ProtectionMode::kRiommuNc,
                          ProtectionMode::kRiommu),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ProtectionMode, bool>>
           &info) {
        std::string n = dma::modeName(std::get<0>(info.param));
        for (char &c : n) {
            if (c == '+')
                c = 'P';
            if (c == '-')
                c = 'M';
        }
        return n + (std::get<1>(info.param) ? "_brcm" : "_mlx");
    });

// ---- invariant suites -------------------------------------------------

/** @p out is clean (@p rule null) or exactly one line naming @p rule. */
::testing::AssertionResult
judged(const std::string &out, const char *rule)
{
    const std::string prefix = rule ? std::string(rule) + ": " : "";
    if (rule ? out.compare(0, prefix.size(), prefix) == 0 &&
                   out.find('\n') == out.size() - 1
             : out.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "want \"" << prefix << "\", got \"" << out << "\"";
}

/** Each fleet rule fires on a hand-built report that breaks only it;
 * the clean report and each exemption break none. */
TEST(InvariantTest, EachFleetRuleFiresAlone)
{
    using Edit = void (*)(sys::ClusterConfig &, FleetParams &, FleetReport &);
    const std::pair<const char *, Edit> cases[] = {
        {nullptr, [](auto &, auto &, auto &) {}},
        {"cqe-conservation",
         [](auto &, auto &, auto &r) { r.completions = 99; }},
        {"error-accounting",
         [](auto &c, auto &, auto &r) {
             c.fault_rate = 0.02; // exempts "errors"
             r.comp_errors = 2;
             r.remote_faults = 1;
         }},
        {"leaks", [](auto &, auto &, auto &r) { r.leaks_clean = false; }},
        {"late-landed", [](auto &, auto &, auto &r) { r.late_landed = 1; }},
        {"late-faulted",
         [](auto &c, auto &, auto &r) {
             c.mode = ProtectionMode::kNone;
             r.late_faulted = 1;
         }},
        {nullptr, // injected faults may fault late arrivals in mode none
         [](auto &c, auto &, auto &r) {
             c.mode = ProtectionMode::kNone;
             c.fault_rate = 0.02;
             r.late_faulted = 1;
         }},
        {"slo-coverage",
         [](auto &, auto &, auto &r) {
             r.slo_valid = true;
             r.slo.count = 99;
         }},
        {"errors",
         [](auto &, auto &, auto &r) { r.comp_errors = r.remote_faults = 1; }},
        {nullptr, // an aborting run may complete in error
         [](auto &c, auto &p, auto &r) {
             c.reliability.enabled = true;
             p.churn_abort_fraction = 0.5;
             r.comp_errors = 3;
         }},
    };
    for (const auto &[rule, edit] : cases) {
        sys::ClusterConfig c; // riommu, lossless, fault-free
        FleetParams p;
        FleetReport r;
        r.posts = r.completions = 100;
        edit(c, p, r);
        EXPECT_TRUE(judged(fleetViolations(c, p, r), rule));
    }
}

/** Each migration rule fires on a hand-built result that breaks only
 * it, in the mode tier it judges; the clean result, the deferring
 * modes' strays and a stray-free run break none. */
TEST(InvariantTest, EachMigrationRuleFiresAlone)
{
    using Edit = void (*)(MigrationParams &, MigrationResult &);
    const std::pair<const char *, Edit> cases[] = {
        {nullptr, [](auto &, auto &) {}},
        {"completed", [](auto &, auto &r) { r.rep.completed = false; }},
        {"completed", [](auto &, auto &r) { r.rep.failed = true; }},
        {"arena", [](auto &, auto &r) { r.dst_hash = 1; }},
        {"leaks", [](auto &, auto &r) { r.leaks_clean = false; }},
        {"stray-tier", [](auto &, auto &r) { r.stray_arrivals = 0; }},
        {"stray-tier", [](auto &, auto &r) { r.stray_landed = 1; }},
        {"stray-tier", [](auto &, auto &r) { r.stray_faulted = 0; }},
        {"stray-tier", [](auto &p, auto &) { p.mode = ProtectionMode::kNone; }},
        {nullptr,
         [](auto &p, auto &r) {
             p.mode = ProtectionMode::kNone;
             std::swap(r.stray_faulted, r.stray_landed);
         }},
        {nullptr,
         [](auto &p, auto &r) {
             p.mode = ProtectionMode::kDefer;
             std::swap(r.stray_faulted, r.stray_landed);
         }},
        {nullptr,
         [](auto &p, auto &r) {
             p.strays = false;
             r.stray_arrivals = r.stray_faulted = 0;
         }},
    };
    for (const auto &[rule, edit] : cases) {
        MigrationParams p; // riommu, strays on
        MigrationResult r;
        r.rep.completed = true;
        r.leaks_clean = true;
        r.stray_arrivals = r.stray_faulted = 10;
        edit(p, r);
        EXPECT_TRUE(judged(migrationViolations(p, r), rule));
    }
}

} // namespace
} // namespace rio::workloads
