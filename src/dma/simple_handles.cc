#include "dma/simple_handles.h"

#include "base/logging.h"

namespace rio::dma {

// ---- NoneDmaHandle ------------------------------------------------------

Result<DmaMapping>
NoneDmaHandle::mapImpl(u16 /*rid*/, PhysAddr pa, u32 size,
                   iommu::DmaDir /*dir*/)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    ++live_;
    return DmaMapping{pa, pa, size};
}

Status
NoneDmaHandle::unmapImpl(const DmaMapping & /*mapping*/, bool /*end_of_burst*/)
{
    RIO_ASSERT(live_ > 0, "unmap with no live mappings");
    --live_;
    return Status::ok();
}

Status
NoneDmaHandle::deviceRead(u64 device_addr, void *dst, u64 len)
{
    if (Status g = guardDetached(device_addr, iommu::Access::kRead); !g)
        return g;
    return deviceAccess(device_addr, [&] {
        pm_.read(device_addr, dst, len);
        return Status::ok();
    });
}

Status
NoneDmaHandle::deviceWrite(u64 device_addr, const void *src, u64 len)
{
    if (Status g = guardDetached(device_addr, iommu::Access::kWrite); !g)
        return g;
    return deviceAccess(device_addr, [&] {
        pm_.write(device_addr, src, len);
        return Status::ok();
    });
}

// ---- HwPassthroughDmaHandle ---------------------------------------------

Result<DmaMapping>
HwPassthroughDmaHandle::mapImpl(u16 /*rid*/, PhysAddr pa, u32 size,
                            iommu::DmaDir /*dir*/)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    if (acct_)
        acct_->charge(cycles::Cat::kMapOther, cost_.passthrough_call);
    ++live_;
    return DmaMapping{pa, pa, size};
}

Status
HwPassthroughDmaHandle::unmapImpl(const DmaMapping & /*mapping*/,
                              bool /*end_of_burst*/)
{
    if (acct_)
        acct_->charge(cycles::Cat::kUnmapOther, cost_.passthrough_call);
    RIO_ASSERT(live_ > 0, "unmap with no live mappings");
    --live_;
    return Status::ok();
}

Status
HwPassthroughDmaHandle::deviceRead(u64 device_addr, void *dst, u64 len)
{
    if (Status g = guardDetached(device_addr, iommu::Access::kRead); !g)
        return g;
    return deviceAccess(device_addr, [&] {
        pm_.read(device_addr, dst, len);
        return Status::ok();
    });
}

Status
HwPassthroughDmaHandle::deviceWrite(u64 device_addr, const void *src,
                                    u64 len)
{
    if (Status g = guardDetached(device_addr, iommu::Access::kWrite); !g)
        return g;
    return deviceAccess(device_addr, [&] {
        pm_.write(device_addr, src, len);
        return Status::ok();
    });
}

// ---- SwPassthroughDmaHandle ---------------------------------------------

SwPassthroughDmaHandle::SwPassthroughDmaHandle(iommu::Iommu &iommu,
                                               mem::PhysicalMemory &pm,
                                               iommu::Bdf bdf,
                                               const cycles::CostModel &cost,
                                               cycles::CycleAccount *acct)
    : iommu_(iommu), bdf_(bdf), cost_(cost), acct_(acct),
      // The identity table is populated lazily and uncharged: it
      // models a mapping of all memory made once at boot.
      table_(pm, /*coherent=*/false, cost, /*acct=*/nullptr)
{
    fault_.bind(&cost_, acct_);
    iommu_.attachDevice(bdf_, &table_);
}

SwPassthroughDmaHandle::~SwPassthroughDmaHandle()
{
    if (!detached_)
        iommu_.detachDevice(bdf_);
}

Status
SwPassthroughDmaHandle::detach()
{
    if (detached_)
        return Status::ok();
    if (acct_)
        acct_->charge(cycles::Cat::kLifecycle, cost_.lifecycle_quiesce);
    iommu_.detachDevice(bdf_);
    detached_ = true;
    return Status::ok();
}

void
SwPassthroughDmaHandle::surpriseRemove()
{
    if (detached_)
        return;
    iommu_.detachDevice(bdf_);
    detached_ = true;
}

Status
SwPassthroughDmaHandle::reattach()
{
    if (!detached_)
        return Status::ok();
    iommu_.attachDevice(bdf_, &table_);
    detached_ = false;
    return Status::ok();
}

void
SwPassthroughDmaHandle::onDetachedAccess(const iommu::FaultRecord &rec)
{
    iommu_.faultLog().record(rec);
}

void
SwPassthroughDmaHandle::ensureIdentity(u64 addr, u64 len)
{
    const u64 first = addr >> kPageShift;
    const u64 last = (addr + (len ? len - 1 : 0)) >> kPageShift;
    for (u64 pfn = first; pfn <= last; ++pfn) {
        int levels = 0;
        if (!table_.walk(pfn, &levels).isOk()) {
            Status s = table_.map(pfn, pfn, iommu::DmaDir::kBidir);
            RIO_ASSERT(s.isOk(), "identity map failed");
        }
    }
}

Result<DmaMapping>
SwPassthroughDmaHandle::mapImpl(u16 /*rid*/, PhysAddr pa, u32 size,
                            iommu::DmaDir /*dir*/)
{
    if (detached_)
        return Status(ErrorCode::kDetached, "map through detached BDF");
    if (acct_)
        acct_->charge(cycles::Cat::kMapOther, cost_.passthrough_call);
    ensureIdentity(pa, size);
    ++live_;
    return DmaMapping{pa, pa, size};
}

Status
SwPassthroughDmaHandle::unmapImpl(const DmaMapping & /*mapping*/,
                              bool /*end_of_burst*/)
{
    if (acct_)
        acct_->charge(cycles::Cat::kUnmapOther, cost_.passthrough_call);
    RIO_ASSERT(live_ > 0, "unmap with no live mappings");
    --live_;
    return Status::ok();
}

Status
SwPassthroughDmaHandle::deviceRead(u64 device_addr, void *dst, u64 len)
{
    if (Status g = guardDetached(device_addr, iommu::Access::kRead); !g)
        return g;
    return deviceAccess(device_addr, [&] {
        ensureIdentity(device_addr, len);
        return iommu_.dmaRead(bdf_, device_addr, dst, len);
    });
}

Status
SwPassthroughDmaHandle::deviceWrite(u64 device_addr, const void *src,
                                    u64 len)
{
    if (Status g = guardDetached(device_addr, iommu::Access::kWrite); !g)
        return g;
    return deviceAccess(device_addr, [&] {
        ensureIdentity(device_addr, len);
        return iommu_.dmaWrite(bdf_, device_addr, src, len);
    });
}

} // namespace rio::dma
