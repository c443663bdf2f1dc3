#include "workloads/stream.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "des/simulator.h"
#include "net/packet.h"
#include "sys/machine.h"
#include "virt/guest.h"

namespace rio::workloads {

StreamParams
streamParamsFor(const nic::NicProfile &profile)
{
    StreamParams p;
    if (std::string_view(profile.name) == "brcm") {
        // Calibrated so the none mode lands near the paper's brcm
        // figures: all modes but strict saturate the 10 GbE line and
        // none consumes ~1/3 of a core (§5.2, Table 2 CPU column).
        p.per_packet_cycles = 1000;
        p.per_ack_cycles = 912;
        p.ack_every = 4;
    } else {
        // mlx: C_none = 1516 + 1200/4 = 1,816 cycles per packet,
        // the bottom grid line of Figure 7.
        p.per_packet_cycles = 1516;
        p.per_ack_cycles = 1200;
        p.ack_every = 4;
    }
    return p;
}

/**
 * All the state runStream() used to keep on its stack, plus the
 * machine itself. Members that the machine or the armed callbacks
 * reference (cost model, profile, params) are owned copies declared
 * before the machine: DmaContext keeps a CostModel reference for its
 * whole life, and under a sweep this object is built long before the
 * engine drives the lane — the constructor's arguments may be gone
 * by then.
 */
struct StreamRun::Impl
{
    /** One Netperf connection: NIC i, driven by the core it is
     * pinned to. */
    struct Flow
    {
        unsigned idx = 0;
        nic::Nic *nic = nullptr;
        des::Core *core = nullptr;
        WindowEdge start, end;
        bool started = false;
        bool stopped = false;
        bool pump_posted = false;
        u64 data_on_wire = 0;
    };

    StreamParams params;
    nic::NicProfile profile;
    cycles::CostModel cost;

    des::Simulator &sim;
    sys::Machine m;
    // The guest attaches before bring-up: registration hypercalls and
    // Rx-prefill traps are boot cost, outside the snapshot window.
    std::optional<virt::Guest> guest;

    // Sized once: callbacks hold references into it.
    std::vector<Flow> flows;
    unsigned stopped_flows = 0;
    u64 total_target = 0;
    u64 message_segments = 1;

    Impl(des::Simulator &s, dma::ProtectionMode mode,
         const nic::NicProfile &prof, const StreamParams &p,
         const cycles::CostModel &c, unsigned ncores)
        : params(p), profile(prof), cost(c), sim(s),
          m(sim, mode, ncores, cost), flows(ncores)
    {
        for (unsigned i = 0; i < ncores; ++i) {
            m.attachNic(profile, i, params.trace);
            flows[i].idx = i;
            flows[i].nic = &m.nic(i);
            flows[i].core = &m.nicCore(i);
        }
    }

    void
    postPump(Flow &f)
    {
        if (f.pump_posted || f.stopped)
            return;
        f.pump_posted = true;
        f.core->post([this, &f] { pump(f); });
    }

    // Application side: saturate the socket. Netperf writes one
    // message (16 KB -> ~12 MSS segments) per send call; processing
    // one message per core work-item lets Rx (ACK) interrupt handling
    // interleave with transmission at realistic granularity — which
    // is what keeps resetting the stock allocator's cached node
    // between Tx allocation runs (§3.2).
    void
    pump(Flow &f)
    {
        f.pump_posted = false;
        if (f.stopped)
            return;
        nic::Nic &nic = *f.nic;
        u64 sent = 0;
        while (sent < message_segments &&
               nic.txSpacePackets(net::kMss) > 0) {
            f.core->acct().charge(cycles::Cat::kProcessing,
                                  params.per_packet_cycles);
            net::Packet pkt;
            pkt.payload_bytes = net::kMss;
            pkt.kind = 1;
            Status s = nic.sendPacket(pkt);
            RIO_ASSERT(s.isOk(), "sendPacket: ", s.toString());
            ++sent;
        }
        if (sent > 0 && nic.txSpacePackets(net::kMss) > 0)
            postPump(f); // next message; Rx handlers slot in between
    }

    void
    onWireTx(Flow &f)
    {
        ++f.data_on_wire;
        const u64 tx = f.nic->stats().tx_packets;
        if (!f.started && tx >= params.warmup_packets) {
            f.started = true;
            f.start = windowEdge(m, f.idx);
        }
        if (f.started && !f.stopped && tx >= total_target) {
            f.stopped = true;
            f.end = windowEdge(m, f.idx);
            if (++stopped_flows == flows.size() &&
                params.churn_per_ms > 0)
                m.disarmLifecycleChurn(); // let the event queue drain
        }
        if (!f.stopped && f.data_on_wire % params.ack_every == 0) {
            sim.scheduleAfter(2 * profile.wire_ns, [this, &f] {
                net::Packet ack;
                ack.payload_bytes = params.ack_payload;
                ack.kind = 2;
                ack.flow = 0; // one TCP connection -> one RSS ring
                f.nic->packetFromWire(ack);
            });
        }
    }

    void
    setup()
    {
        if (params.platform != virt::Platform::kBare) {
            guest.emplace(m, params.platform);
            if (params.huge_stage2)
                guest->setHugeStage2(true);
        }
        m.bringUp();
        if (params.fault_rate > 0) {
            m.setFaultPolicy(params.fault_policy);
            m.setFaultInjection(params.fault_rate, params.fault_seed);
        }
        if (params.churn_per_ms > 0) {
            sys::LifecycleChurnConfig churn;
            churn.events_per_ms = params.churn_per_ms;
            churn.seed = params.churn_seed;
            churn.down_ns = params.churn_down_ns;
            m.armLifecycleChurn(churn);
        }

        total_target = params.warmup_packets + params.measure_packets;
        message_segments =
            std::max<u64>(net::segmentsFor(params.message_bytes), 1);

        for (Flow &f : flows) {
            f.nic->setTxSpaceCallback([this, &f] { postPump(f); });

            // ACK receive path: protocol processing per ACK; the
            // buffer recycling (unmap + map) was already charged by
            // the driver.
            f.nic->setRxCallback([this, &f](const net::Packet &) {
                f.core->acct().charge(cycles::Cat::kProcessing,
                                      params.per_ack_cycles);
            });

            // Remote sink: consumes data, returns an ACK every
            // ack_every packets after a round-trip wire delay.
            f.nic->setWireTxCallback(
                [this, &f](const net::Packet &) { onWireTx(f); });
        }
        for (Flow &f : flows)
            postPump(f);
    }

    RunResult
    collectFlow(const Flow &f)
    {
        RIO_ASSERT(f.stopped, "stream flow ", f.idx,
                   " ended before reaching its target");
        RunResult r = windowResult(f.start, f.end, m);
        r.nic = statsDelta(f.end.nic, f.start.nic);
        r.tx_packets = r.nic.tx_packets;
        r.rx_packets = r.nic.rx_packets;
        r.tx_payload_bytes = r.nic.tx_payload_bytes;
        r.transactions = r.nic.tx_packets;
        r.throughput_gbps = static_cast<double>(r.tx_payload_bytes) * 8 /
                            r.duration_s / 1e9;
        r.transactions_per_sec =
            static_cast<double>(r.transactions) / r.duration_s;
        r.cycles_per_packet =
            static_cast<double>(r.acct.total()) /
            static_cast<double>(std::max<u64>(r.tx_packets, 1));
        r.avg_unmap_burst =
            r.nic.unmap_bursts
                ? static_cast<double>(r.nic.unmap_burst_len_sum) /
                      static_cast<double>(r.nic.unmap_bursts)
                : 0.0;
        // Context-wide; one of the two is always zero: modes use
        // either the radix IOMMU or the rIOMMU, never both.
        r.walks = m.ctx().iommu().walkCount() +
                  m.ctx().riommu().riotlb().stats().walks;
        r.walk_mem_refs = m.ctx().iommu().walkMemRefs() +
                          m.ctx().riommu().walkMemRefs();
        return r;
    }

    ScalingResult
    collectAll()
    {
        std::vector<RunResult> per_flow;
        for (const Flow &f : flows)
            per_flow.push_back(collectFlow(f));
        return aggregate(std::move(per_flow), m);
    }
};

StreamRun::StreamRun(des::Simulator &sim, dma::ProtectionMode mode,
                     const nic::NicProfile &profile,
                     const StreamParams &params,
                     const cycles::CostModel &cost, unsigned ncores)
    : impl_(std::make_unique<Impl>(sim, mode, profile, params, cost,
                                   ncores))
{
    impl_->setup();
}

StreamRun::~StreamRun() = default;

RunResult
StreamRun::collect()
{
    RIO_ASSERT(impl_->flows.size() == 1,
               "collect() of a multi-flow run; use collectAll()");
    return impl_->collectFlow(impl_->flows[0]);
}

ScalingResult
StreamRun::collectAll()
{
    return impl_->collectAll();
}

RunResult
runStream(dma::ProtectionMode mode, const nic::NicProfile &profile,
          const StreamParams &params, const cycles::CostModel &cost)
{
    des::Simulator sim;
    StreamRun run(sim, mode, profile, params, cost);
    sim.run();
    return run.collect();
}

ScalingResult
runStreamScaling(dma::ProtectionMode mode, const nic::NicProfile &profile,
                 unsigned ncores, const StreamParams &params,
                 const cycles::CostModel &cost)
{
    des::Simulator sim;
    StreamRun run(sim, mode, profile, params, cost, ncores);
    sim.run();
    return run.collectAll();
}

} // namespace rio::workloads
