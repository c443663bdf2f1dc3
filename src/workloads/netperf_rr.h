/**
 * @file
 * Netperf UDP request-response model (§5.1): two full machines under
 * the same protection mode exchange 1-byte messages in a ping-pong.
 * Latency is the inverse of the transaction rate (Table 3); the
 * workload is latency-sensitive, so rIOMMU's end-of-burst
 * invalidation is NOT amortized here — exactly the regime §4
 * discusses.
 */
#ifndef RIO_WORKLOADS_NETPERF_RR_H
#define RIO_WORKLOADS_NETPERF_RR_H

#include <memory>

#include "dma/fault.h"
#include "dma/protection_mode.h"
#include "nic/profile.h"
#include "virt/platform.h"
#include "workloads/result.h"

namespace rio::des {
class Simulator;
}

namespace rio::workloads {

/** Parameters of a Netperf RR run. */
struct RrParams
{
    u64 measure_transactions = 4000;
    u64 warmup_transactions = 500;
    u32 payload = 1; //!< netperf RR default: one byte each way
    /** Per-message stack cost (UDP path + syscall + wakeup). */
    Cycles per_message_cycles = 2600;
    /**
     * Deterministic DMA fault injection (0 = off), armed on BOTH
     * machines after bring-up. A dropped message would deadlock the
     * ping-pong, so a netperf-style retransmit timer (active only
     * while injecting) re-fires the request when no echo arrives.
     */
    double fault_rate = 0.0;
    u64 fault_seed = 1;
    dma::FaultPolicy fault_policy = dma::FaultPolicy::kRetryRemap;
    /** Surprise-unplug/replug churn on the measured machine
     * (events/ms of virtual time, 0 = off). The retransmit timer
     * restarts the ping-pong after each outage. */
    double churn_per_ms = 0.0;
    u64 churn_seed = 1;
    Nanos churn_down_ns = 20000;
    /**
     * Execution platform of the MEASURED machine (the netserver echo
     * side always runs bare: the paper's question is what the
     * initiator's DMA management costs under virtualization).
     */
    virt::Platform platform = virt::Platform::kBare;
};

/** Calibrated parameters (Table 3's none RTT anchors the wire). */
RrParams rrParamsFor(const nic::NicProfile &profile);

/**
 * A ping-pong run split into setup and collection (see StreamRun in
 * workloads/stream.h for the pattern). BOTH machines — initiator and
 * echoer — live on the one simulator passed in: they are causally
 * coupled every few microseconds of virtual time, far tighter than
 * any useful lookahead, so a sweep parallelizes across RR pairs, not
 * within one.
 *
 * Each machine has @p ncores cores and NICs sharing its own
 * DmaContext; flow i connects initiator NIC i to echoer NIC i and
 * has its own echo and retransmit timer. One flow is the paper's
 * single-core setup.
 */
class RrRun
{
  public:
    RrRun(des::Simulator &sim, dma::ProtectionMode mode,
          const nic::NicProfile &profile, const RrParams &params,
          const cycles::CostModel &cost = cycles::defaultCostModel(),
          unsigned ncores = 1);
    ~RrRun();
    RrRun(const RrRun &) = delete;
    RrRun &operator=(const RrRun &) = delete;

    /** Initiator metrics of a one-flow run; asserts it hit its
     * transaction target. */
    RunResult collect();

    /** Per-flow and aggregate initiator metrics; asserts every flow
     * hit its transaction target. */
    ScalingResult collectAll();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run the ping-pong. Returns the initiating machine's metrics;
 * transactions_per_sec is the RR rate, so RTT in microseconds is
 * 1e6 / transactions_per_sec.
 */
RunResult runNetperfRr(dma::ProtectionMode mode,
                       const nic::NicProfile &profile,
                       const RrParams &params,
                       const cycles::CostModel &cost =
                           cycles::defaultCostModel());

/** Run the ping-pong on each of @p ncores core pairs. */
ScalingResult runRrScaling(dma::ProtectionMode mode,
                           const nic::NicProfile &profile,
                           unsigned ncores, const RrParams &params,
                           const cycles::CostModel &cost =
                               cycles::defaultCostModel());

} // namespace rio::workloads

#endif // RIO_WORKLOADS_NETPERF_RR_H
