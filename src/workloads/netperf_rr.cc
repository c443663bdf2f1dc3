#include "workloads/netperf_rr.h"

#include <optional>
#include <string_view>

#include "base/logging.h"
#include "des/simulator.h"
#include "net/packet.h"
#include "sys/machine.h"
#include "virt/guest.h"

namespace rio::workloads {

RrParams
rrParamsFor(const nic::NicProfile &profile)
{
    RrParams p;
    if (std::string_view(profile.name) == "brcm") {
        // brcm RTTs are far higher (Table 3: 34.6 us for none) —
        // 10GBASE-T PHY latency plus heavier interrupt moderation;
        // most of that is in the profile's wire/irq delays.
        p.per_message_cycles = 3400;
    } else {
        p.per_message_cycles = 2600;
    }
    return p;
}

/**
 * Stack state of the old runNetperfRr(), promoted to members so the
 * simulator can be driven externally. The cost model is an owned
 * copy declared before the machines (DmaContext keeps a reference);
 * so are the profile and params, which the wire and retransmit
 * callbacks read mid-run.
 */
struct RrRun::Impl
{
    /** One ping-pong: initiator NIC i <-> echoer NIC i. */
    struct Flow
    {
        unsigned idx = 0;
        u64 transactions = 0;
        bool stopped = false;
        u64 watchdog_seen = ~u64{0};
        WindowEdge start, end;
    };

    RrParams params;
    nic::NicProfile profile;
    cycles::CostModel cost;

    des::Simulator &sim;
    sys::Machine a; // netperf (measured)
    sys::Machine b; // netserver (echoer)
    // Only the measured machine runs inside a guest; attach before
    // bring-up so boot traps precede the measurement window.
    std::optional<virt::Guest> guest;

    // Sized once: callbacks hold references into it.
    std::vector<Flow> flows;
    unsigned stopped_flows = 0;

    // Retransmit timer, as in real netperf UDP RR: a request or echo
    // dropped by a fault would otherwise stall the ping-pong forever.
    // The timeout is far above any RTT, so it only fires on a genuine
    // loss; never scheduled when injection is off.
    static constexpr Nanos kRetransmitNs = 1'000'000; // 1 ms >> RTT

    Impl(des::Simulator &s, dma::ProtectionMode mode,
         const nic::NicProfile &prof, const RrParams &p,
         const cycles::CostModel &c, unsigned ncores)
        : params(p), profile(prof), cost(c), sim(s),
          a(sim, mode, ncores, cost), b(sim, mode, ncores, cost),
          flows(ncores)
    {
        for (unsigned i = 0; i < ncores; ++i) {
            a.attachNic(profile, i);
            b.attachNic(profile, i);
            flows[i].idx = i;
        }
    }

    void
    send(sys::Machine &machine, unsigned i)
    {
        if (!machine.nic(i).isUp())
            return; // mid-outage; the retransmit timer retries
        machine.nicCore(i).acct().charge(cycles::Cat::kProcessing,
                                         params.per_message_cycles);
        net::Packet pkt;
        pkt.payload_bytes = params.payload;
        Status s = machine.nic(i).sendPacket(pkt);
        RIO_ASSERT(s.isOk(), "rr send failed: ", s.toString());
    }

    // Initiator: count a transaction per echo, fire the next one.
    void
    onEcho(Flow &f)
    {
        ++f.transactions;
        if (f.transactions == params.warmup_transactions)
            f.start = windowEdge(a, f.idx);
        if (f.transactions ==
            params.warmup_transactions + params.measure_transactions) {
            f.stopped = true;
            f.end = windowEdge(a, f.idx);
            if (++stopped_flows == flows.size() &&
                params.churn_per_ms > 0)
                a.disarmLifecycleChurn(); // let the event queue drain
            return;
        }
        if (!f.stopped)
            send(a, f.idx);
    }

    void
    watchdog(Flow &f)
    {
        if (f.stopped)
            return;
        if (f.transactions == f.watchdog_seen)
            a.nicCore(f.idx).post([this, &f] {
                if (!f.stopped)
                    send(a, f.idx);
            });
        f.watchdog_seen = f.transactions;
        sim.scheduleAfter(kRetransmitNs, [this, &f] { watchdog(f); });
    }

    void
    setup()
    {
        if (params.platform != virt::Platform::kBare)
            guest.emplace(a, params.platform);
        a.bringUp();
        b.bringUp();
        if (params.fault_rate > 0) {
            a.setFaultPolicy(params.fault_policy);
            a.setFaultInjection(params.fault_rate, params.fault_seed);
            b.setFaultPolicy(params.fault_policy);
            // Decorrelate the echoer's fault stream from the initiator's.
            b.setFaultInjection(params.fault_rate, params.fault_seed + 1);
        }
        if (params.churn_per_ms > 0) {
            sys::LifecycleChurnConfig churn;
            churn.events_per_ms = params.churn_per_ms;
            churn.seed = params.churn_seed;
            churn.down_ns = params.churn_down_ns;
            a.armLifecycleChurn(churn);
        }

        for (Flow &f : flows) {
            const unsigned i = f.idx;
            // Wire: full-duplex point-to-point link per flow pair.
            a.nic(i).setWireTxCallback([this, i](const net::Packet &pkt) {
                sim.scheduleAfter(profile.wire_ns, [this, i, pkt] {
                    b.nic(i).packetFromWire(pkt);
                });
            });
            b.nic(i).setWireTxCallback([this, i](const net::Packet &pkt) {
                sim.scheduleAfter(profile.wire_ns, [this, i, pkt] {
                    a.nic(i).packetFromWire(pkt);
                });
            });

            // Echo side: bounce every message straight back.
            b.nic(i).setRxCallback(
                [this, i](const net::Packet &) { send(b, i); });
            a.nic(i).setRxCallback(
                [this, &f](const net::Packet &) { onEcho(f); });

            if (params.fault_rate > 0 || params.churn_per_ms > 0)
                sim.scheduleAfter(kRetransmitNs,
                                  [this, &f] { watchdog(f); });
        }
        for (Flow &f : flows)
            a.nicCore(f.idx).post([this, &f] { send(a, f.idx); });
    }

    RunResult
    collectFlow(const Flow &f)
    {
        RIO_ASSERT(f.stopped, "RR flow ", f.idx, " ended early");
        RunResult r = windowResult(f.start, f.end, a);
        r.transactions = params.measure_transactions;
        r.transactions_per_sec =
            static_cast<double>(r.transactions) / r.duration_s;
        r.tx_packets = r.transactions;
        r.cycles_per_packet = static_cast<double>(r.acct.total()) /
                              static_cast<double>(r.transactions);
        r.throughput_gbps = r.transactions_per_sec *
                            static_cast<double>(params.payload) * 8 / 1e9;
        return r;
    }

    ScalingResult
    collectAll()
    {
        std::vector<RunResult> per_flow;
        for (const Flow &f : flows)
            per_flow.push_back(collectFlow(f));
        return aggregate(std::move(per_flow), a);
    }
};

RrRun::RrRun(des::Simulator &sim, dma::ProtectionMode mode,
             const nic::NicProfile &profile, const RrParams &params,
             const cycles::CostModel &cost, unsigned ncores)
    : impl_(std::make_unique<Impl>(sim, mode, profile, params, cost,
                                   ncores))
{
    impl_->setup();
}

RrRun::~RrRun() = default;

RunResult
RrRun::collect()
{
    RIO_ASSERT(impl_->flows.size() == 1,
               "collect() of a multi-flow run; use collectAll()");
    return impl_->collectFlow(impl_->flows[0]);
}

ScalingResult
RrRun::collectAll()
{
    return impl_->collectAll();
}

RunResult
runNetperfRr(dma::ProtectionMode mode, const nic::NicProfile &profile,
             const RrParams &params, const cycles::CostModel &cost)
{
    des::Simulator sim;
    RrRun run(sim, mode, profile, params, cost);
    sim.run();
    return run.collect();
}

ScalingResult
runRrScaling(dma::ProtectionMode mode, const nic::NicProfile &profile,
             unsigned ncores, const RrParams &params,
             const cycles::CostModel &cost)
{
    des::Simulator sim;
    RrRun run(sim, mode, profile, params, cost, ncores);
    sim.run();
    return run.collectAll();
}

} // namespace rio::workloads
