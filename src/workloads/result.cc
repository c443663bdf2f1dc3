#include "workloads/result.h"

#include <algorithm>

#include "sys/machine.h"

namespace rio::workloads {

nic::NicStats
statsDelta(const nic::NicStats &a, const nic::NicStats &b)
{
    nic::NicStats d;
    d.tx_packets = a.tx_packets - b.tx_packets;
    d.tx_payload_bytes = a.tx_payload_bytes - b.tx_payload_bytes;
    d.tx_irqs = a.tx_irqs - b.tx_irqs;
    d.rx_packets = a.rx_packets - b.rx_packets;
    d.rx_payload_bytes = a.rx_payload_bytes - b.rx_payload_bytes;
    d.rx_dropped = a.rx_dropped - b.rx_dropped;
    d.rx_irqs = a.rx_irqs - b.rx_irqs;
    d.dma_faults = a.dma_faults - b.dma_faults;
    d.unmap_bursts = a.unmap_bursts - b.unmap_bursts;
    d.unmap_burst_len_sum = a.unmap_burst_len_sum - b.unmap_burst_len_sum;
    d.surprise_unplugs = a.surprise_unplugs - b.surprise_unplugs;
    d.replugs = a.replugs - b.replugs;
    return d;
}

WindowEdge
windowEdge(sys::Machine &m, unsigned i)
{
    return WindowEdge{m.sim().now(), m.nicCore(i).busyCycles(),
                      m.nicCore(i).acct(), m.nic(i).stats()};
}

RunResult
windowResult(const WindowEdge &start, const WindowEdge &end,
             sys::Machine &m)
{
    RunResult r;
    r.duration_s = static_cast<double>(end.t - start.t) * 1e-9;
    r.acct = end.acct.since(start.acct);
    r.cpu = std::min(1.0, static_cast<double>(end.busy - start.busy) /
                              m.cost().core_ghz /
                              static_cast<double>(end.t - start.t));
    r.fault = m.faultStats();
    r.surprise_unplugs = m.lifecycleStats().surprise_unplugs;
    r.replugs = m.lifecycleStats().replugs;
    r.detach_faults = m.detachFaultCount();
    r.vm_exits = r.acct.ops(cycles::Cat::kVirt);
    return r;
}

ScalingResult
aggregate(std::vector<RunResult> per_flow, sys::Machine &m)
{
    ScalingResult out;
    out.cores = static_cast<unsigned>(per_flow.size());
    Cycles total_cycles = 0, lock_wait = 0;
    for (const RunResult &r : per_flow) {
        out.tx_packets += r.tx_packets;
        total_cycles += r.acct.total();
        lock_wait += r.acct.get(cycles::Cat::kLockWait);
        out.throughput_gbps += r.throughput_gbps;
    }
    const double pkts =
        static_cast<double>(std::max<u64>(out.tx_packets, 1));
    out.cycles_per_packet = static_cast<double>(total_cycles) / pkts;
    out.lock_wait_per_packet = static_cast<double>(lock_wait) / pkts;
    out.iova_lock = m.iovaLockStats();
    out.inval_lock = m.invalLockStats();
    out.fault = m.faultStats();
    out.per_flow = std::move(per_flow);
    return out;
}

} // namespace rio::workloads
