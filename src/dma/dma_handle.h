/**
 * @file
 * The OS DMA API (paper §3.1, Figures 4 and 6) as seen by a device
 * driver: map a physical target buffer to obtain a device-visible
 * DMA address, let the device access it, unmap when the DMA is done.
 * Concrete handles implement the protection modes.
 *
 * The same object also carries the device-side access path
 * (deviceRead/deviceWrite), i.e. "the bus": every device access goes
 * through whatever translation the mode imposes, so protection
 * properties are enforced — and their violations observable — in one
 * place.
 */
#ifndef RIO_DMA_DMA_HANDLE_H
#define RIO_DMA_DMA_HANDLE_H

#include <functional>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "dma/fault.h"
#include "iommu/types.h"

namespace rio::cycles {
class CycleAccount;
}
namespace rio::des {
class Core;
}
namespace rio::obs {
class Histogram;
}

namespace rio::dma {

/** A live mapping returned by map() and consumed by unmap(). */
struct DmaMapping
{
    u64 device_addr = 0; //!< what the driver puts in the descriptor
    PhysAddr pa = 0;
    u32 size = 0;
};

/** One element of a scatter-gather list. */
struct SgEntry
{
    PhysAddr pa = 0;
    u32 len = 0;
};

/**
 * One surviving mapping, as reported by the stale-mapping leak
 * detector: enough to name the owner ring and device address in the
 * error message.
 */
struct LiveMappingInfo
{
    u64 device_addr = 0;
    u32 size = 0;
    u16 rid = 0;
};

/**
 * Per-device DMA-management handle. Driver-side calls (map/unmap)
 * charge the core's cycle account; device-side calls (deviceRead/
 * deviceWrite) are free for the core, per the paper's validated
 * model.
 */
class DmaHandle
{
  public:
    virtual ~DmaHandle() = default;

    /**
     * Map @p size bytes at physical @p pa for DMA in direction
     * @p dir.
     * @param rid ring hint: selects the rRING for rIOMMU modes;
     *        ignored by the baseline modes (one hierarchy per
     *        device).
     *
     * Non-virtual: the public call wraps the mode's mapImpl() so the
     * per-mode map-latency histogram and timeline span are recorded
     * at one choke point (when bindObs() armed them).
     */
    Result<DmaMapping> map(u16 rid, PhysAddr pa, u32 size,
                           iommu::DmaDir dir);

    /**
     * Tear down a mapping. @p end_of_burst marks the last unmap of a
     * completion burst: rIOMMU invalidates its single rIOTLB entry
     * only then; other modes ignore the flag. Non-virtual wrapper
     * over unmapImpl(), same observability contract as map().
     */
    Status unmap(const DmaMapping &mapping, bool end_of_burst);

    /**
     * Arm map/unmap observability: cycle-latency histograms labeled
     * {mode=@p mode} fed from @p acct's deltas, timeline spans on
     * @p core's track. Any argument may be null/absent; recording
     * degrades gracefully. Called by DmaContext::makeHandleWithSpecs
     * — decorators stay unbound so nothing double-counts.
     */
    void bindObs(const char *mode, cycles::CycleAccount *acct,
                 des::Core *core);

    /**
     * Map a scatter-gather list (the Linux dma_map_sg path). The
     * default maps each element independently, rolling back on
     * failure; the baseline-IOMMU handle overrides it to allocate one
     * contiguous IOVA range for the whole list, as intel-iommu does.
     * Returns one DmaMapping per element, in order.
     */
    virtual Result<std::vector<DmaMapping>>
    mapSg(u16 rid, const std::vector<SgEntry> &sg, iommu::DmaDir dir);

    /** Tear down a list produced by mapSg (pass the full vector). */
    virtual Status unmapSg(const std::vector<DmaMapping> &mappings,
                           bool end_of_burst);

    /** Device-side read of memory (DMA toward the device). */
    virtual Status deviceRead(u64 device_addr, void *dst, u64 len) = 0;

    /** Device-side write of memory (DMA from the device). */
    virtual Status deviceWrite(u64 device_addr, const void *src,
                               u64 len) = 0;

    /** Mappings currently live through this handle. */
    virtual u64 liveMappings() const = 0;

    /** The device this handle manages DMA for. */
    virtual iommu::Bdf bdf() const = 0;

    // ---- fault recovery & injection -----------------------------------
    // Virtual so decorators (trace::RecordingDmaHandle) can forward to
    // the handle that actually runs the device path.

    /** Select the recovery policy for faulted device accesses. */
    virtual void setFaultPolicy(FaultPolicy policy)
    {
        fault_.setPolicy(policy);
    }

    virtual FaultPolicy faultPolicy() const { return fault_.policy(); }

    /**
     * Arm (rate > 0) or disarm deterministic fault injection on this
     * handle's device-access path.
     */
    virtual void setFaultInjection(const FaultInjectConfig &cfg)
    {
        fault_.setInjection(cfg);
    }

    virtual FaultStats faultStats() const { return fault_.stats(); }

    /**
     * Opt the handle's IOVA allocator into the per-core magazine
     * pair over the shared depot (Bonwick layering; see
     * iova::MagazineIovaAllocator::setCoreCache). Only the magazine
     * modes (strict+/defer+) have the layer; everywhere else this is
     * a no-op so callers can set it unconditionally per mode sweep.
     */
    virtual void setIovaCoreCache(u32 /*rounds*/) {}

    /**
     * Back the handle's own (stage-1) I/O page table with 2 MB
     * superpage leaves: mappings that fit inside one 2 MB physical
     * region share a single huge translation, installed on first
     * touch and torn down (one masked invalidation) on last unref.
     * Protection granularity coarsens to the region — the documented
     * superpage tradeoff — and walks terminate a level early, which
     * is what closes the nested 2-D gap toward the ~15-ref ideal.
     * Only the baseline radix modes have a stage-1 table; everywhere
     * else this is a no-op so sweeps can set it unconditionally.
     * Flip before traffic; mixing with live 4K mappings is not
     * modeled.
     */
    virtual void setStage1Superpages(bool /*on*/) {}

    // ---- device lifecycle (quiesce protocol + surprise removal) -------
    // Virtual for the same reason as the fault API: decorators must
    // forward lifecycle calls to the handle that owns the real state.

    /**
     * Flush phase of the quiesce protocol (stop posting → drain ring
     * → unmap all → flush → detach): push out deferred invalidations
     * and drop any translation-cache state so nothing survives the
     * mappings it guarded. Default: nothing is queued.
     */
    virtual Status quiesceFlush() { return Status::ok(); }

    /**
     * Orderly detach (last phase of quiesce): tear down the device's
     * IOMMU attachment. The handle stays constructed — map() and
     * device access now fail with kDetached — and can be revived
     * with reattach().
     */
    virtual Status
    detach()
    {
        detached_ = true;
        return Status::ok();
    }

    /**
     * Surprise hot-unplug: the device vanished mid-burst, no drain or
     * flush happened first. Marks the handle detached and makes the
     * device unresponsive to invalidations (the ITE trigger); the
     * driver's removal path then unmaps through the detached handle.
     */
    virtual void surpriseRemove() { detached_ = true; }

    /** Re-attach after an unplug or orderly detach. */
    virtual Status
    reattach()
    {
        detached_ = false;
        return Status::ok();
    }

    virtual bool detached() const { return detached_; }

    /**
     * The live mappings, one record each, for the leak detector.
     * Modes with no per-mapping state (None/HWpt/SWpt identity maps)
     * report nothing; their liveMappings() counter still counts.
     */
    virtual std::vector<LiveMappingInfo> liveMappingList() const
    {
        return {};
    }

    /** Typed records of DMA attempts through the detached BDF. */
    virtual const std::vector<iommu::FaultRecord> &detachFaults() const
    {
        return detach_faults_;
    }

    virtual void clearDetachFaults() { detach_faults_.clear(); }

  protected:
    /** Mode-specific body of map(); see the public wrapper. */
    virtual Result<DmaMapping> mapImpl(u16 rid, PhysAddr pa, u32 size,
                                       iommu::DmaDir dir) = 0;

    /** Mode-specific body of unmap(); see the public wrapper. */
    virtual Status unmapImpl(const DmaMapping &mapping,
                             bool end_of_burst) = 0;

    /**
     * Use-after-detach guard, called at the top of every device
     * access path: a DMA through a detached BDF yields one typed
     * fault record (and, where an IOMMU exists, a FaultLog entry via
     * onDetachedAccess) instead of undefined behaviour.
     */
    Status
    guardDetached(u64 device_addr, iommu::Access access)
    {
        if (!detached_)
            return Status::ok();
        const iommu::FaultRecord rec{bdf(), device_addr, access,
                                     iommu::FaultReason::kDetached};
        constexpr size_t kMaxDetachFaults = 65536;
        if (detach_faults_.size() < kMaxDetachFaults)
            detach_faults_.push_back(rec);
        onDetachedAccess(rec);
        return Status(ErrorCode::kDetached,
                      "DMA through detached BDF");
    }

    /** Hook for modes with a FaultLog to record the detached access. */
    virtual void onDetachedAccess(const iommu::FaultRecord &) {}

    /**
     * Run one top-level device access, a Status() callable, with the
     * fault engine in the loop. Unarmed (every fault-free run), the
     * access runs directly: no std::function, no allocation. Armed,
     * armedAccess() gets a non-owning std::function over @p access.
     */
    template <typename Access>
    Status
    deviceAccess(u64 device_addr, Access &&access)
    {
        if (!fault_.armed())
            return access();
        return armedAccess(device_addr, std::ref(access));
    }

    /**
     * The armed path of deviceAccess: one injection draw, then any
     * failed access goes through FaultEngine::recover. The default
     * suits modes with no (modeled) translation to damage: an
     * injected fault is a synthesized bus abort (the access never
     * ran) and recovery decides whether it is replayed. SWpt uses it
     * too: its identity table self-heals (every device access
     * re-installs missing PTEs), so persistent damage cannot bite.
     */
    virtual Status armedAccess(u64 device_addr,
                               const std::function<Status()> &access);

    FaultEngine fault_;
    bool detached_ = false;
    std::vector<iommu::FaultRecord> detach_faults_;

  private:
    // Observability bindings (bindObs); never read by mode logic.
    // Null until bound.
    obs::Histogram *obs_map_cycles_ = nullptr;
    obs::Histogram *obs_unmap_cycles_ = nullptr;
    cycles::CycleAccount *obs_acct_ = nullptr;
    des::Core *obs_core_ = nullptr;
};

} // namespace rio::dma

#endif // RIO_DMA_DMA_HANDLE_H
