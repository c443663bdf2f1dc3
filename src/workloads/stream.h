/**
 * @file
 * Netperf TCP stream model (§5.1): the measured host pushes
 * MSS-sized segments of 16 KB messages as fast as its core can, the
 * remote end sinks them and returns ACKs. Throughput is CPU-bound
 * unless the NIC's line rate caps it first (the brcm regime).
 */
#ifndef RIO_WORKLOADS_STREAM_H
#define RIO_WORKLOADS_STREAM_H

#include <memory>

#include "dma/fault.h"
#include "dma/protection_mode.h"
#include "nic/profile.h"
#include "trace/trace.h"
#include "virt/platform.h"
#include "workloads/result.h"

namespace rio::des {
class Simulator;
}

namespace rio::workloads {

/** Parameters of a Netperf-stream run. */
struct StreamParams
{
    /** Data packets in the measurement window / the warmup. */
    u64 measure_packets = 60000;
    u64 warmup_packets = 15000;
    /** Netperf's default message size; segmented at the MSS. */
    u32 message_bytes = 16384;
    /** Remote ACKs every N data packets (delayed-ACK style). */
    u32 ack_every = 2;
    u32 ack_payload = 4;
    /**
     * Per-data-packet protocol cost on the core (TCP/IP, syscalls,
     * interrupt share) — the "other" bar of Figure 7, calibrated so
     * that the none mode reproduces the paper's C_none.
     */
    Cycles per_packet_cycles = 1516;
    /** Rx-stack cost of processing one ACK. */
    Cycles per_ack_cycles = 600;
    /** Optional DMA trace capture (§5.4). */
    trace::DmaTrace *trace = nullptr;
    /**
     * Deterministic DMA fault injection (0 = off). Armed after
     * bring-up so initialization is always clean; faulted Tx packets
     * are lost on the wire, faulted Rx packets are dropped.
     */
    double fault_rate = 0.0;
    u64 fault_seed = 1;
    dma::FaultPolicy fault_policy = dma::FaultPolicy::kRetryRemap;
    /**
     * Surprise-unplug/replug churn (events/ms of virtual time, 0 =
     * off). Events hit mid-burst; the NIC comes back after
     * churn_down_ns and the run still reaches its packet target.
     */
    double churn_per_ms = 0.0;
    u64 churn_seed = 1;
    Nanos churn_down_ns = 20000;
    /**
     * Execution platform: bare metal, or a guest VM under one of the
     * three vIOMMU strategies (DESIGN.md §10). The guest wraps the
     * measured machine before bring-up, so registration hypercalls
     * and init-time traps land outside the measurement window.
     */
    virt::Platform platform = virt::Platform::kBare;

    /** Back guest memory with 2 MB stage-2 leaves (nested ablation;
     * ignored on bare metal). */
    bool huge_stage2 = false;
};

/** Calibrated parameters for a NIC profile (see workloads/calibrate.cc). */
StreamParams streamParamsFor(const nic::NicProfile &profile);

/**
 * A Netperf-stream run split into setup and collection so the
 * simulator can be driven externally — in particular by a
 * des::ParallelEngine lane (workloads/sweep.h). The constructor
 * builds the machine, arms fault/churn injection, wires every
 * callback, and posts the first pump event; it does NOT run the
 * simulation. After the caller has driven @p sim to completion
 * (sim.run(), or an engine running the owning lane), collect()
 * validates the run reached its packet target and computes the
 * window metrics.
 *
 * The run drives @p ncores independent flows on one machine: flow i
 * has its own core, NIC, pump and remote sink, and all flows share
 * the machine's DmaContext. The flows interact only through the
 * context-global IOVA and invalidation-queue locks (§3.2), and not
 * at all in the rIOMMU and none modes. One flow is the paper's
 * single-core setup.
 *
 * The run owns copies of the profile, params, and cost model: the
 * machine keeps a reference to the cost model for its whole life,
 * and a sweep constructs runs long before the engine fires them.
 */
class StreamRun
{
  public:
    StreamRun(des::Simulator &sim, dma::ProtectionMode mode,
              const nic::NicProfile &profile, const StreamParams &params,
              const cycles::CostModel &cost = cycles::defaultCostModel(),
              unsigned ncores = 1);
    ~StreamRun();
    StreamRun(const StreamRun &) = delete;
    StreamRun &operator=(const StreamRun &) = delete;

    /** Window metrics of a one-flow run; asserts it reached its
     * packet target. */
    RunResult collect();

    /** Per-flow and aggregate metrics; asserts every flow reached
     * its packet target. */
    ScalingResult collectAll();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Run Netperf stream under @p mode and return window metrics. */
RunResult runStream(dma::ProtectionMode mode,
                    const nic::NicProfile &profile,
                    const StreamParams &params,
                    const cycles::CostModel &cost =
                        cycles::defaultCostModel());

/** Run Netperf stream on each of @p ncores cores of one machine. */
ScalingResult runStreamScaling(dma::ProtectionMode mode,
                               const nic::NicProfile &profile,
                               unsigned ncores,
                               const StreamParams &params,
                               const cycles::CostModel &cost =
                                   cycles::defaultCostModel());

} // namespace rio::workloads

#endif // RIO_WORKLOADS_STREAM_H
