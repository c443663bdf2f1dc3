/**
 * @file
 * Host-time probes of the layers the simulation reaches only from the
 * inside (dma, iova, iommu, riommu, cycles, nic, rdma). Each probe
 * calls the layer's public functions directly, shaped like the
 * workload that asked for it (same mode, live-mapping count, ring
 * sizes, burst length and mapping size), under one span named
 * "<module>.probe" so the traced run can report the module's self
 * time.
 */
#include <algorithm>
#include <deque>
#include <memory>

#include "bench.h"
#include "dma/dma_context.h"
#include "iova/linux_allocator.h"
#include "iova/magazine_allocator.h"
#include "nic/profile.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"
#include "workloads/stream.h"

namespace perfbench {

namespace {

using namespace rio;
using dma::ProtectionMode;

constexpr iommu::Bdf kProbeBdf{0, 3, 0};
constexpr u64 kIovaLimitPfn = (u64{1} << 32) >> kPageShift;

/** Fixed op counts: the probes do the same work on every run. */
constexpr u64 kMapOps = 60000;
constexpr u64 kIovaOps = 200000;
constexpr u64 kTranslateOps = 200000;
constexpr u64 kChargeOps = 2000000;

u64 g_probe_failures = 0;

/**
 * A handle holding @p shape's live mappings spread over its rRINGs
 * (rid 0 is left to static mappings, as the NIC drivers do). Rings
 * big enough for a burst keep room for one; the others, like an RDMA
 * NIC's 4-entry control rings, only hold live mappings. Baseline modes
 * ignore the ring id, so the same layout serves every mode.
 */
struct LiveSet
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    std::unique_ptr<dma::DmaHandle> handle;
    PhysAddr pa = 0;
    std::vector<std::deque<dma::DmaMapping>> rings;
    std::vector<u32> ring_sizes;
    std::vector<size_t> burst_rings; //!< rings with room for a burst

    LiveSet(ProtectionMode mode, const ProbeShape &shape)
        : ring_sizes(shape.ring_sizes)
    {
        handle = ctx.makeHandle(mode, kProbeBdf, &acct, shape.ring_sizes);
        pa = ctx.memory().allocFrame();
        rings.resize(std::max<size_t>(shape.ring_sizes.size(), 2) - 1);
        for (u64 i = 0; i < shape.live; ++i) {
            const size_t r = i % rings.size();
            const u64 room = cap(r) > shape.burst + 1 ? shape.burst : 0;
            if (rings[r].size() + room + 1 < cap(r))
                map(r, shape.bytes);
        }
        for (size_t r = 0; r < rings.size(); ++r)
            if (rings[r].size() + shape.burst < cap(r))
                burst_rings.push_back(r);
        if (burst_rings.empty())
            ++g_probe_failures;
    }

    u16 rid(size_t r) const { return static_cast<u16>(r + 1); }

    u64
    cap(size_t r) const
    {
        return ring_sizes.empty() ? ~u64{0} : ring_sizes[rid(r)];
    }

    void
    map(size_t r, u32 bytes)
    {
        auto m = handle->map(rid(r), pa, bytes, iommu::DmaDir::kBidir);
        if (!m.isOk()) {
            ++g_probe_failures;
            return;
        }
        rings[r].push_back(m.value());
    }

    void
    unmapOldest(size_t r, bool end_of_burst)
    {
        if (rings[r].empty())
            return;
        if (!handle->unmap(rings[r].front(), end_of_burst).isOk())
            ++g_probe_failures;
        rings[r].pop_front();
    }

    ~LiveSet()
    {
        for (size_t r = 0; r < rings.size(); ++r)
            while (!rings[r].empty())
                unmapOldest(r, rings[r].size() == 1);
    }
};

void
probeMapUnmap(ProtectionMode mode, const ProbeShape &shape, Tracer &tr,
              std::map<std::string, double> &out)
{
    LiveSet set(mode, shape);
    auto s = tr.scope("dma.probe");
    double map_s = 0;
    double unmap_s = 0;
    u64 maps = 0;
    for (size_t i = 0; maps < kMapOps && !set.burst_rings.empty(); ++i) {
        const size_t r = set.burst_rings[i % set.burst_rings.size()];
        const double t0 = wallNow();
        for (u32 b = 0; b < shape.burst; ++b)
            set.map(r, shape.bytes);
        const double t1 = wallNow();
        for (u32 b = 0; b < shape.burst; ++b)
            set.unmapOldest(r, b + 1 == shape.burst);
        unmap_s += wallNow() - t1;
        map_s += t1 - t0;
        maps += shape.burst;
    }
    const std::string key = "dma." + modeSlug(mode);
    out[key + ".map_ns"] = 1e9 * map_s / static_cast<double>(maps);
    out[key + ".unmap_ns"] = 1e9 * unmap_s / static_cast<double>(maps);
}

template <typename Alloc>
double
probeIova(u64 live, Tracer &tr)
{
    cycles::CycleAccount acct;
    Alloc alloc(kIovaLimitPfn, &acct, cycles::defaultCostModel());
    for (u64 i = 0; i < live; ++i)
        if (!alloc.alloc(1).isOk())
            ++g_probe_failures;
    auto s = tr.scope("iova.probe");
    const double t0 = wallNow();
    for (u64 i = 0; i < kIovaOps; ++i) {
        auto r = alloc.alloc(1);
        if (!r.isOk() || !alloc.free(r.value().pfn_lo).isOk())
            ++g_probe_failures;
    }
    return 1e9 * (wallNow() - t0) / static_cast<double>(kIovaOps);
}

double
probeIommuTranslate(const ProbeShape &shape, Tracer &tr)
{
    LiveSet set(ProtectionMode::kStrict, shape);
    std::vector<u64> addrs;
    for (const auto &ring : set.rings)
        for (const dma::DmaMapping &m : ring)
            addrs.push_back(m.device_addr);
    auto s = tr.scope("iommu.probe");
    const double t0 = wallNow();
    for (u64 i = 0; i < kTranslateOps; ++i)
        if (!set.ctx.iommu()
                 .translate(kProbeBdf, addrs[i % addrs.size()],
                            iommu::Access::kRead)
                 .isOk())
            ++g_probe_failures;
    return 1e9 * (wallNow() - t0) / static_cast<double>(kTranslateOps);
}

double
probeRiommuTranslate(const ProbeShape &shape, Tracer &tr)
{
    LiveSet set(ProtectionMode::kRiommu, shape);
    // Device order: each ring's live entries in sequence, ring by ring.
    std::vector<u64> addrs;
    for (const auto &ring : set.rings)
        for (const dma::DmaMapping &m : ring)
            addrs.push_back(m.device_addr);
    auto s = tr.scope("riommu.probe");
    const double t0 = wallNow();
    for (u64 i = 0; i < kTranslateOps; ++i)
        if (!set.ctx.riommu()
                 .translate(kProbeBdf, riommu::RIova{addrs[i % addrs.size()]},
                            iommu::Access::kRead, shape.bytes)
                 .isOk())
            ++g_probe_failures;
    return 1e9 * (wallNow() - t0) / static_cast<double>(kTranslateOps);
}

void
probeCycles(Tracer &tr)
{
    auto s = tr.scope("cycles.probe");
    cycles::CycleAccount acct;
    cycles::CycleAccount window;
    for (u64 i = 0; i < kChargeOps; ++i) {
        acct.charge(static_cast<cycles::Cat>(i % cycles::kNumCats), i & 255);
        if (i % 4096 == 0)
            window = acct.since(window);
    }
    if (acct.total() == 0)
        ++g_probe_failures;
}

/** NIC + stack path with no IOMMU work: a short stream at mode none. */
void
probeNic(Tracer &tr)
{
    auto s = tr.scope("nic.probe");
    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = 4000;
    params.warmup_packets = 500;
    const workloads::RunResult r = workloads::runStream(
        ProtectionMode::kNone, nic::mlxProfile(), params);
    if (r.tx_packets < params.measure_packets)
        ++g_probe_failures;
}

/** RDMA verbs + wire path with no IOMMU work: a small lossless fleet. */
void
probeRdma(Tracer &tr)
{
    auto s = tr.scope("rdma.probe");
    workloads::FleetParams p;
    p.connections = 4;
    p.warmup_ops = 100;
    p.measure_ops = 1000;
    sys::ClusterConfig cfg;
    cfg.machines = 2;
    cfg.mode = ProtectionMode::kNone;
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    sys::Cluster cl(cfg);
    const workloads::FleetReport rep = workloads::runFleet(cl, p);
    if (rep.completions != rep.posts || rep.comp_errors != 0)
        ++g_probe_failures;
}

} // namespace

u64
runProbes(const ProbeShape &shape, Tracer &tr,
          std::map<std::string, double> &out)
{
    g_probe_failures = 0;
    for (const ProtectionMode mode :
         {ProtectionMode::kRiommu, ProtectionMode::kStrict})
        probeMapUnmap(mode, shape, tr, out);
    out["iova.linux.alloc_free_ns"] =
        probeIova<iova::LinuxIovaAllocator>(shape.live, tr);
    out["iova.magazine.alloc_free_ns"] =
        probeIova<iova::MagazineIovaAllocator>(shape.live, tr);
    out["iommu.translate_ns"] = probeIommuTranslate(shape, tr);
    out["riommu.translate_ns"] = probeRiommuTranslate(shape, tr);
    probeCycles(tr);
    probeNic(tr);
    probeRdma(tr);
    return g_probe_failures;
}

} // namespace perfbench
