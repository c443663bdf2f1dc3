/**
 * @file
 * Sparse simulated physical memory. All IOMMU/rIOMMU translation
 * structures, ring descriptors and DMA target buffers live here, so
 * the translation hardware models walk *real* memory-resident tables
 * and functional bugs (bad pointer, stale entry) surface as wrong
 * data rather than being structurally impossible.
 */
#ifndef RIO_MEM_PHYS_MEM_H
#define RIO_MEM_PHYS_MEM_H

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "base/types.h"

namespace rio::mem {

/**
 * 4 KB-frame sparse physical memory with a bump-plus-freelist frame
 * allocator. Frames are materialized on first touch; reads of
 * untouched memory return zeros, as DRAM-after-clear would.
 *
 * Frames are found through a two-level directory: a top level sized
 * from the capacity (4,096 entries for 8 GB) of lazily allocated
 * 512-frame chunks. A lookup is two indexed loads — no hashing — and
 * the fixed-width accessors (read64/write64 and friends) are inline
 * when the access stays inside one frame, since table walks, queue
 * descriptors and rPTEs make them the bulk of all memory traffic.
 */
class PhysicalMemory
{
  public:
    /**
     * @param size_bytes capacity cap (default 8 GB, the paper's
     * server memory); allocation beyond it panics.
     */
    explicit PhysicalMemory(u64 size_bytes = u64{8} << 30);

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    // ---- raw access ---------------------------------------------------
    void read(PhysAddr addr, void *dst, u64 size) const;
    void write(PhysAddr addr, const void *src, u64 size);

    u64 read64(PhysAddr addr) const { return readScalar<u64>(addr); }
    void write64(PhysAddr addr, u64 value) { writeScalar(addr, value); }
    u32 read32(PhysAddr addr) const { return readScalar<u32>(addr); }
    void write32(PhysAddr addr, u32 value) { writeScalar(addr, value); }
    u8 read8(PhysAddr addr) const { return readScalar<u8>(addr); }
    void write8(PhysAddr addr, u8 value) { writeScalar(addr, value); }

    /** Read a trivially-copyable struct. */
    template <typename T>
    T
    readObject(PhysAddr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T obj;
        read(addr, &obj, sizeof(T));
        return obj;
    }

    /** Write a trivially-copyable struct. */
    template <typename T>
    void
    writeObject(PhysAddr addr, const T &obj)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &obj, sizeof(T));
    }

    /** Zero [addr, addr+size). */
    void fillZero(PhysAddr addr, u64 size);

    // ---- write observation ----------------------------------------------
    /**
     * Invoked on every mutation of physical memory with the exact
     * (addr, size) written, by write(), fillZero() and the
     * fixed-width write fast paths alike. One observer at a time;
     * null clears it. Used by the migration engine for dirty-page
     * tracking — the hook is host-side only and charges no simulated
     * cycles.
     */
    using WriteObserver = std::function<void(PhysAddr addr, u64 size)>;
    void setWriteObserver(WriteObserver cb) { observer_ = std::move(cb); }

    // ---- allocation -----------------------------------------------------
    /** Allocate one zeroed 4 KB frame; returns its physical address. */
    PhysAddr allocFrame();

    /**
     * Allocate @p size bytes of physically contiguous, page-aligned
     * memory (device rings, table arrays).
     */
    PhysAddr allocContiguous(u64 size);

    /** Return a frame to the freelist. */
    void freeFrame(PhysAddr addr);

    /** Frames currently allocated (for leak checks in tests). */
    u64 allocatedFrames() const { return allocated_frames_; }

    u64 capacity() const { return capacity_; }

  private:
    using Frame = std::array<u8, kPageSize>;
    static constexpr u64 kChunkShift = 9; //!< 512 frames per chunk
    static constexpr u64 kChunkMask = (u64{1} << kChunkShift) - 1;
    using Chunk = std::array<std::unique_ptr<Frame>, u64{1} << kChunkShift>;

    /** [addr, addr+size) lies inside one frame below capacity. */
    bool
    inOneFrame(PhysAddr addr, u64 size) const
    {
        return (addr & kPageMask) + size <= kPageSize && addr < capacity_;
    }

    /** The frame holding @p addr, or null if untouched. addr < capacity. */
    const Frame *
    frameForRead(PhysAddr addr) const
    {
        const u64 fn = addr >> kPageShift;
        const Chunk *chunk = dir_[fn >> kChunkShift].get();
        return chunk ? (*chunk)[fn & kChunkMask].get() : nullptr;
    }

    /** The frame holding @p addr, created zeroed on first touch. */
    Frame &
    frameFor(PhysAddr addr)
    {
        const u64 fn = addr >> kPageShift;
        if (Chunk *chunk = dir_[fn >> kChunkShift].get())
            if (Frame *frame = (*chunk)[fn & kChunkMask].get())
                return *frame;
        return frameForSlow(fn);
    }

    Frame &frameForSlow(u64 fn);

    template <typename T>
    T
    readScalar(PhysAddr addr) const
    {
        T v{};
        if (!inOneFrame(addr, sizeof(T)))
            read(addr, &v, sizeof(T));
        else if (const Frame *frame = frameForRead(addr))
            std::memcpy(&v, frame->data() + (addr & kPageMask), sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeScalar(PhysAddr addr, T value)
    {
        if (!inOneFrame(addr, sizeof(T))) {
            write(addr, &value, sizeof(T));
            return;
        }
        if (observer_)
            observer_(addr, sizeof(T));
        std::memcpy(frameFor(addr).data() + (addr & kPageMask), &value,
                    sizeof(T));
    }

    u64 capacity_;
    u64 next_free_frame_ = 1; // frame 0 reserved: catches null derefs
    u64 allocated_frames_ = 0;
    std::vector<u64> freelist_;
    std::vector<std::unique_ptr<Chunk>> dir_; //!< frame directory
    WriteObserver observer_;
};

} // namespace rio::mem

#endif // RIO_MEM_PHYS_MEM_H
