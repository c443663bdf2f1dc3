/**
 * @file
 * Result record shared by all workload drivers — the quantities the
 * paper's evaluation reports: throughput, transactions/latency, CPU
 * consumption and the cycles-per-packet breakdown (Figure 7 /
 * Table 1 categories).
 */
#ifndef RIO_WORKLOADS_RESULT_H
#define RIO_WORKLOADS_RESULT_H

#include <vector>

#include "cycles/cycle_account.h"
#include "des/spinlock.h"
#include "dma/fault.h"
#include "nic/nic.h"

namespace rio::sys {
class Machine;
}

namespace rio::workloads {

/** Measurement-window results of one workload run. */
struct RunResult
{
    double duration_s = 0;
    u64 tx_packets = 0;
    u64 rx_packets = 0;
    u64 tx_payload_bytes = 0;
    u64 transactions = 0;

    /** Payload goodput in Gbps over the window. */
    double throughput_gbps = 0;
    /** Requests (or RR transactions) per second. */
    double transactions_per_sec = 0;
    /** Core utilization in [0, 1]. */
    double cpu = 0;
    /** Average core cycles per transmitted packet (Figure 7's C). */
    double cycles_per_packet = 0;
    /** Average completion-burst length (the paper observes ~200). */
    double avg_unmap_burst = 0;

    /** Per-category cycle deltas over the window (Table 1 rows). */
    cycles::CycleAccount acct;
    /** NIC counter deltas over the window. */
    nic::NicStats nic;
    /**
     * Fault-injection/recovery counters of the measured machine over
     * the whole run (injection arms after bring-up, so warmup faults
     * are included; zero everywhere when injection is off).
     */
    dma::FaultStats fault;

    /** Lifecycle-churn counters over the whole run (all zero when
     * churn is off). */
    u64 surprise_unplugs = 0;
    u64 replugs = 0;
    u64 detach_faults = 0;

    /** vmexits the measured core took inside the window (zero on
     * bare metal; boot-time hypercalls precede the window). */
    u64 vm_exits = 0;

    /** (r)IOTLB-miss walks over the whole run and the combined
     * stage-1 + stage-2 memory references they cost — device-side
     * latency (uncharged to the core), the huge-page stage-2
     * ablation's metric. */
    u64 walks = 0;
    u64 walk_mem_refs = 0;
};

/**
 * Aggregate and per-flow results of a K-flow run: K flows of one
 * traffic shape, each on its own core and NIC of one machine, all
 * sharing its DmaContext (§3.2).
 */
struct ScalingResult
{
    unsigned cores = 1;

    /** Sum of measurement-window packets across flows. */
    u64 tx_packets = 0;
    /** Aggregate core cycles per packet (incl. lock waits). */
    double cycles_per_packet = 0;
    /** Aggregate lock-wait cycles per packet (0 for rIOMMU/none). */
    double lock_wait_per_packet = 0;
    /** Sum of flow goodputs in Gbps. */
    double throughput_gbps = 0;

    /** Whole-run contention counters of the two context locks. */
    des::SimSpinlock::Stats iova_lock;
    des::SimSpinlock::Stats inval_lock;

    /** Whole-run fault/recovery counters of the measured machine. */
    dma::FaultStats fault;

    /** Per-flow window results (index == core index). */
    std::vector<RunResult> per_flow;
};

/** Sum @p per_flow into a ScalingResult; whole-run counters come
 * from the measured machine @p m. */
ScalingResult aggregate(std::vector<RunResult> per_flow, sys::Machine &m);

/** One flow's core and NIC counters at an edge of its window. */
struct WindowEdge
{
    Nanos t = 0;
    Cycles busy = 0;
    cycles::CycleAccount acct;
    nic::NicStats nic;
};

/** The counters of NIC @p i of @p m and of the core it is pinned
 * to, now. */
WindowEdge windowEdge(sys::Machine &m, unsigned i);

/**
 * The fields every traffic shape reports the same way: window
 * duration, cycle deltas, core utilization and vmexits between
 * @p start and @p end, plus the whole-run fault and lifecycle
 * counters of the measured machine @p m.
 */
RunResult windowResult(const WindowEdge &start, const WindowEdge &end,
                       sys::Machine &m);

/** a - b, field-wise, for NIC counter windows. */
nic::NicStats statsDelta(const nic::NicStats &a, const nic::NicStats &b);

} // namespace rio::workloads

#endif // RIO_WORKLOADS_RESULT_H
