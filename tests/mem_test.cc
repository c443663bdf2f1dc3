/**
 * @file
 * Unit tests for the simulated physical memory.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "mem/phys_mem.h"

namespace rio::mem {
namespace {

TEST(PhysicalMemory, UntouchedMemoryReadsZero)
{
    PhysicalMemory pm;
    EXPECT_EQ(pm.read64(0x1000), 0u);
    u8 buf[16];
    pm.read(0x12345, buf, sizeof(buf));
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, ReadBackWhatWasWritten)
{
    PhysicalMemory pm;
    pm.write64(0x2000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(pm.read64(0x2000), 0xdeadbeefcafef00dULL);
    pm.write32(0x3000, 0x12345678);
    EXPECT_EQ(pm.read32(0x3000), 0x12345678u);
    pm.write8(0x3004, 0xab);
    EXPECT_EQ(pm.read8(0x3004), 0xab);
}

TEST(PhysicalMemory, CrossPageTransfer)
{
    PhysicalMemory pm;
    std::vector<u8> src(3 * kPageSize);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<u8>(i * 37);
    const PhysAddr addr = 2 * kPageSize - 100; // straddles boundaries
    pm.write(addr, src.data(), src.size());
    std::vector<u8> dst(src.size());
    pm.read(addr, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST(PhysicalMemory, ObjectRoundTrip)
{
    struct Desc
    {
        u64 addr;
        u32 len;
        u32 flags;
    };
    PhysicalMemory pm;
    const Desc d{0xabc, 1500, 7};
    pm.writeObject(0x8000, d);
    const Desc r = pm.readObject<Desc>(0x8000);
    EXPECT_EQ(r.addr, d.addr);
    EXPECT_EQ(r.len, d.len);
    EXPECT_EQ(r.flags, d.flags);
}

TEST(PhysicalMemory, FillZero)
{
    PhysicalMemory pm;
    pm.write64(0x1000, ~u64{0});
    pm.fillZero(0x1000, 8);
    EXPECT_EQ(pm.read64(0x1000), 0u);
}

TEST(PhysicalMemory, WriteObserverSeesExactRangeOnEveryWritePath)
{
    PhysicalMemory pm;
    std::vector<std::pair<PhysAddr, u64>> seen;
    pm.setWriteObserver(
        [&](PhysAddr addr, u64 size) { seen.emplace_back(addr, size); });
    const u8 buf[24] = {};
    pm.write64(0x1008, 1);
    pm.write64(0x1ffc, 2); // straddles two frames: general path
    pm.write32(0x2004, 3);
    pm.write8(0x2009, 4);
    pm.write(0x2ff0, buf, sizeof(buf));
    pm.fillZero(0x3010, 40);
    const std::vector<std::pair<PhysAddr, u64>> want = {
        {0x1008, 8}, {0x1ffc, 8}, {0x2004, 4},
        {0x2009, 1}, {0x2ff0, 24}, {0x3010, 40}};
    EXPECT_EQ(seen, want);

    pm.setWriteObserver(nullptr);
    pm.write64(0x1008, 5);
    EXPECT_EQ(seen.size(), want.size());
}

TEST(PhysicalMemory, Word64AtFrameEdges)
{
    PhysicalMemory pm;
    const PhysAddr last_slot = 5 * kPageSize + 4088; // last in-frame slot
    pm.write64(last_slot, 0x1122334455667788ULL);
    EXPECT_EQ(pm.read64(last_slot), 0x1122334455667788ULL);
    EXPECT_EQ(pm.read64(last_slot + 8), 0u) << "next frame untouched";

    const PhysAddr straddle = 7 * kPageSize + 4092; // spans two frames
    pm.write64(straddle, 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(pm.read64(straddle), 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(pm.read32(straddle), 0xe5f60718u);
    EXPECT_EQ(pm.read32(straddle + 4), 0xa1b2c3d4u);
}

TEST(PhysicalMemory, UntouchedFrameInTouchedChunkReadsZero)
{
    PhysicalMemory pm;
    // Frames 1 and 2 share one directory chunk; only frame 1 exists.
    pm.write64(kPageSize, ~u64{0});
    EXPECT_EQ(pm.read64(2 * kPageSize), 0u);
    EXPECT_EQ(pm.read8(2 * kPageSize + 17), 0u);
    u8 buf[32];
    std::memset(buf, 0xee, sizeof(buf));
    pm.read(2 * kPageSize + 100, buf, sizeof(buf));
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, LastWordOfDefaultCapacity)
{
    PhysicalMemory pm;
    ASSERT_EQ(pm.capacity(), u64{8} << 30);
    const PhysAddr last = pm.capacity() - 8;
    EXPECT_EQ(pm.read64(last), 0u);
    pm.write64(last, 0x0123456789abcdefULL);
    EXPECT_EQ(pm.read64(last), 0x0123456789abcdefULL);
}

TEST(PhysicalMemory, FrameAllocationIsZeroedAndDistinct)
{
    PhysicalMemory pm;
    const PhysAddr a = pm.allocFrame();
    const PhysAddr b = pm.allocFrame();
    EXPECT_NE(a, b);
    EXPECT_TRUE(isPageAligned(a));
    EXPECT_TRUE(isPageAligned(b));
    EXPECT_EQ(pm.allocatedFrames(), 2u);

    pm.write64(a, 123);
    pm.freeFrame(a);
    const PhysAddr c = pm.allocFrame(); // recycles a
    EXPECT_EQ(c, a);
    EXPECT_EQ(pm.read64(c), 0u) << "recycled frame must be zeroed";
}

TEST(PhysicalMemory, FrameZeroIsNeverAllocated)
{
    PhysicalMemory pm;
    for (int i = 0; i < 64; ++i)
        EXPECT_NE(pm.allocFrame(), 0u);
}

TEST(PhysicalMemory, ContiguousAllocationSpansPages)
{
    PhysicalMemory pm;
    const PhysAddr a = pm.allocContiguous(3 * kPageSize + 1);
    EXPECT_TRUE(isPageAligned(a));
    EXPECT_EQ(pm.allocatedFrames(), 4u);
    // Whole run is writable and readable.
    std::vector<u8> buf(3 * kPageSize + 1, 0x5a);
    pm.write(a, buf.data(), buf.size());
    std::vector<u8> out(buf.size());
    pm.read(a, out.data(), out.size());
    EXPECT_EQ(buf, out);
}

TEST(PhysicalMemoryDeathTest, OutOfRangeAccessPanics)
{
    PhysicalMemory pm(1 << 20); // 1 MB
    EXPECT_DEATH(pm.write64(2 << 20, 1), "out of range");
    u64 v;
    EXPECT_DEATH(pm.read((2 << 20), &v, 8), "out of range");
}

TEST(PhysicalMemoryDeathTest, Word64PastCapacityPanics)
{
    PhysicalMemory pm;
    const PhysAddr cap = pm.capacity();
    EXPECT_DEATH(pm.read64(cap - 4), "out of range");
    EXPECT_DEATH(pm.write64(cap - 4, 1), "out of range");
    EXPECT_DEATH(pm.read64(cap), "out of range");
    EXPECT_DEATH(pm.write64(cap + kPageSize, 1), "out of range");
}

TEST(PhysicalMemoryDeathTest, ExhaustionPanics)
{
    PhysicalMemory pm(4 * kPageSize);
    pm.allocFrame();
    pm.allocFrame();
    pm.allocFrame(); // frames 1..3 (0 reserved)
    EXPECT_DEATH(pm.allocFrame(), "exhausted");
}

TEST(PhysicalMemoryDeathTest, UnalignedFreePanics)
{
    PhysicalMemory pm;
    pm.allocFrame();
    EXPECT_DEATH(pm.freeFrame(123), "unaligned");
}

} // namespace
} // namespace rio::mem
