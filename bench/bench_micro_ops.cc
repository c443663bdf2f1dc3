/**
 * @file
 * google-benchmark microbenchmarks of the hot driver paths: the
 * map/unmap implementations of each protection mode, the IOVA
 * allocators, the translation routines, simulated-memory word
 * access and one device DMA. These measure *real*
 * wall-clock time of the reproduction's data-structure code (the
 * simulated-cycle accounting is exercised by the other benches).
 */
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "dma/dma_context.h"
#include "iova/linux_allocator.h"
#include "iova/magazine_allocator.h"
#include "riommu/rdevice.h"

using namespace rio;

namespace {

void
BM_LinuxIovaAllocFree(benchmark::State &state)
{
    cycles::CostModel cost;
    cycles::CycleAccount acct;
    iova::LinuxIovaAllocator alloc((u64{1} << 32) >> kPageShift, &acct,
                                   cost);
    // Pre-populate a live working set comparable to the NIC's.
    std::deque<u64> live;
    for (int i = 0; i < state.range(0); ++i)
        live.push_back(alloc.alloc(1).value().pfn_lo);
    for (auto _ : state) {
        auto r = alloc.alloc(1);
        benchmark::DoNotOptimize(r);
        (void)alloc.free(r.value().pfn_lo);
    }
}
BENCHMARK(BM_LinuxIovaAllocFree)->Arg(256)->Arg(4096);

void
BM_MagazineIovaAllocFree(benchmark::State &state)
{
    cycles::CostModel cost;
    cycles::CycleAccount acct;
    iova::MagazineIovaAllocator alloc((u64{1} << 32) >> kPageShift,
                                      &acct, cost);
    std::deque<u64> live;
    for (int i = 0; i < state.range(0); ++i)
        live.push_back(alloc.alloc(1).value().pfn_lo);
    for (auto _ : state) {
        auto r = alloc.alloc(1);
        benchmark::DoNotOptimize(r);
        (void)alloc.free(r.value().pfn_lo);
    }
}
BENCHMARK(BM_MagazineIovaAllocFree)->Arg(256)->Arg(4096);

void
BM_BaselineMapUnmap(benchmark::State &state)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle =
        ctx.makeHandle(static_cast<dma::ProtectionMode>(state.range(0)),
                       iommu::Bdf{0, 3, 0}, &acct);
    const PhysAddr pa = ctx.memory().allocFrame();
    for (auto _ : state) {
        auto m = handle->map(0, pa, 1500, iommu::DmaDir::kBidir);
        benchmark::DoNotOptimize(m);
        (void)handle->unmap(m.value(), true);
    }
}
BENCHMARK(BM_BaselineMapUnmap)
    ->Arg(static_cast<int>(dma::ProtectionMode::kStrict))
    ->Arg(static_cast<int>(dma::ProtectionMode::kStrictPlus))
    ->Arg(static_cast<int>(dma::ProtectionMode::kDefer))
    ->Arg(static_cast<int>(dma::ProtectionMode::kDeferPlus));

void
BM_RiommuMapUnmap(benchmark::State &state)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(dma::ProtectionMode::kRiommu,
                                 iommu::Bdf{0, 3, 0}, &acct, {1024});
    const PhysAddr pa = ctx.memory().allocFrame();
    for (auto _ : state) {
        auto m = handle->map(0, pa, 1500, iommu::DmaDir::kBidir);
        benchmark::DoNotOptimize(m);
        (void)handle->unmap(m.value(), true);
    }
}
BENCHMARK(BM_RiommuMapUnmap);

void
BM_BaselineTranslateHit(benchmark::State &state)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(dma::ProtectionMode::kStrict,
                                 iommu::Bdf{0, 3, 0}, &acct);
    const PhysAddr pa = ctx.memory().allocFrame();
    auto m = handle->map(0, pa, 1500, iommu::DmaDir::kBidir).value();
    u64 sink = 0;
    for (auto _ : state) {
        auto t = ctx.iommu().translate(iommu::Bdf{0, 3, 0},
                                       m.device_addr, iommu::Access::kRead);
        sink += t.value().pa;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BaselineTranslateHit);

void
BM_RiommuTranslateSequential(benchmark::State &state)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    riommu::RDevice dev(ctx.riommu(), ctx.memory(), iommu::Bdf{0, 4, 0},
                        std::vector<u32>{1024}, true, ctx.cost(), &acct);
    const PhysAddr buf = ctx.memory().allocContiguous(kPageSize);
    std::vector<riommu::RIova> iovas;
    for (u32 i = 0; i < 1024; ++i)
        iovas.push_back(
            dev.map(0, buf, 64, iommu::DmaDir::kToDevice).value());
    u64 i = 0;
    u64 sink = 0;
    for (auto _ : state) {
        auto t = ctx.riommu().translate(iommu::Bdf{0, 4, 0},
                                        iovas[i++ % 1024],
                                        iommu::Access::kRead, 1);
        sink += t.value().pa;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RiommuTranslateSequential);

// Simulated-memory word access, the floor under every table walk,
// queue descriptor and rPTE: 4,632 touched frames is perfbench
// stream7's live-mapping working set.
constexpr u32 kTouchedFrames = 4632;

std::vector<PhysAddr>
touchedWords(mem::PhysicalMemory &pm)
{
    std::vector<PhysAddr> addrs;
    for (u32 i = 0; i < kTouchedFrames; ++i)
        addrs.push_back(pm.allocFrame() + (i * 8) % kPageSize);
    return addrs;
}

void
BM_PhysMemRead64(benchmark::State &state)
{
    mem::PhysicalMemory pm;
    const std::vector<PhysAddr> addrs = touchedWords(pm);
    u64 i = 0;
    u64 sink = 0;
    for (auto _ : state)
        sink += pm.read64(addrs[i++ % kTouchedFrames]);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_PhysMemRead64);

void
BM_PhysMemWrite64(benchmark::State &state)
{
    mem::PhysicalMemory pm;
    const std::vector<PhysAddr> addrs = touchedWords(pm);
    u64 i = 0;
    for (auto _ : state) {
        pm.write64(addrs[i % kTouchedFrames], i);
        ++i;
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_PhysMemWrite64);

/** One 1,500-byte device read through a strict-mode IOTLB hit. */
void
BM_BaselineDeviceRead(benchmark::State &state)
{
    dma::DmaContext ctx;
    cycles::CycleAccount acct;
    auto handle = ctx.makeHandle(dma::ProtectionMode::kStrict,
                                 iommu::Bdf{0, 3, 0}, &acct);
    const PhysAddr pa = ctx.memory().allocFrame();
    auto m = handle->map(0, pa, 1500, iommu::DmaDir::kBidir).value();
    std::vector<u8> buf(1500);
    (void)handle->deviceRead(m.device_addr, buf.data(), buf.size());
    for (auto _ : state) {
        Status s = handle->deviceRead(m.device_addr, buf.data(), buf.size());
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_BaselineDeviceRead);

} // namespace

BENCHMARK_MAIN();
