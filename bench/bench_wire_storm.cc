/**
 * @file
 * Hostile-wire storm bench: the fleet workload on a lossy/congested
 * fabric (sys::WireFaultConfig) with the RoCE-style reliability layer
 * on — loss rate x incast x the seven protection modes. Reported per
 * point: goodput, retransmits/op, p99 op latency, and the protection
 * counters the paper's safety story turns on: how many *late* data
 * packets (retransmit duplicates and delayed stragglers arriving
 * after their QP died or was rebound) were stopped by the target-side
 * IOMMU vs landed in memory.
 *
 * The headline, in three tiers. The rIOMMU modes leave no stale
 * window — every late arrival faults (late_landed == 0, asserted):
 * ring-coded rIOVAs make the guarantee structural, since a recycled
 * QP slot regenerates the identical address (a matching rkey IS the
 * current translation) and a non-matching one belongs to no ring.
 * The strict modes close the stale-translation window (synchronous
 * invalidation) but not the IOVA-*reuse* window: under churn a freed
 * range re-allocated to a live mapping lets a stale rkey land —
 * their late_landed column measures that reuse exposure. The defer
 * modes batch invalidations (250 frees per flush), so a late packet
 * can additionally hit a still-cached translation and silently land:
 * the paper's deferred-invalidation hole, now measured under a
 * hostile wire instead of argued. Mode kNone cannot fault at all
 * (late_faulted == 0, asserted) — every straggler lands.
 *
 * Conservation gate on every point: completions == posts. A lost
 * packet either recovers by retransmit or surfaces as a QP error that
 * flushes its WQEs as error CQEs — no post may vanish.
 *
 * `--loss 0` is an ordinary point: the same sweep on an unarmed wire
 * (only the ingress cap of the incast points stays), reliability on.
 */
#include "bench_common.h"

#include <string>
#include <vector>

#include "base/logging.h"
#include "sys/cluster.h"
#include "workloads/fleet.h"

using namespace rio;

namespace {

workloads::FleetParams
baseParams(bool quick)
{
    // bench_cluster_rdma's 64-connection point.
    workloads::FleetParams p;
    p.connections = 64;
    p.credits = 16;
    p.warmup_ops = quick ? 100 : 300;
    p.measure_ops = quick ? 500 : 3000;
    p.seed = 3;
    return p;
}

struct StormPoint
{
    dma::ProtectionMode mode;
    double loss = 0;
    bool incast = false;
    workloads::FleetReport rep;
};

StormPoint
runStorm(dma::ProtectionMode mode, double loss, bool incast,
         unsigned machines, unsigned threads, bool quick)
{
    workloads::FleetParams p = baseParams(quick);
    p.churn_period_ops = 25; // rebind QPs: stale rkeys for stragglers
    p.churn_abort_fraction = 0.5; // half the churn is app death
    if (incast) {
        p.incast_period_ops = 50;
        p.incast_burst = 12;
    }

    sys::ClusterConfig cfg;
    cfg.machines = machines;
    cfg.threads = threads;
    cfg.mode = mode;
    cfg.max_qps = workloads::fleetMaxQps(p, machines);
    cfg.wire = sys::stormWire(loss);
    if (incast)
        cfg.wire.ingress_cap = 16; // bounded port: incast tail-drops
    cfg.reliability.enabled = true;

    sys::Cluster cluster(cfg);
    StormPoint pt;
    pt.mode = mode;
    pt.loss = loss;
    pt.incast = incast;
    pt.rep = workloads::runFleet(cluster, p);

    // One CQE per post: every loss recovers or errors, none vanish.
    RIO_ASSERT(pt.rep.completions == pt.rep.posts,
               "CQE conservation broke at ", dma::modeName(mode),
               " loss=", loss, ": ", pt.rep.completions, " CQEs for ",
               pt.rep.posts, " posts");
    // The protection claim under loss (file header). Scoped to the
    // rIOMMU modes: they close the stale window *structurally* — a
    // recycled QP slot regenerates the identical ring-coded rIOVA
    // (so a matching rkey is the current translation, not a stale
    // one), and a non-matching rIOVA can belong to no other ring.
    // The strict modes close the stale-translation window too, but
    // stay exposed to IOVA reuse under churn: a freed range
    // re-allocated to a live mapping lets a stale rkey land. Their
    // late_landed is reported, not asserted — it is the reuse
    // window's size.
    const char *name = dma::modeName(mode);
    const std::string_view n(name);
    if (n == "riommu-" || n == "riommu") {
        RIO_ASSERT(pt.rep.late_landed == 0, name,
                   " must stop every late arrival, but ",
                   pt.rep.late_landed, " landed");
    }
    if (n == "none") {
        RIO_ASSERT(pt.rep.late_faulted == 0,
                   "mode none cannot fault, but ", pt.rep.late_faulted,
                   " late arrivals faulted");
    }
    RIO_ASSERT(pt.rep.leaks_clean, "leaked mappings at ", name,
               " loss=", loss);
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    double loss = -1.0;
    unsigned machines = 3;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--quick", [&](int &) { quick = true; }},
         {"--loss",
          [&](int &i) { loss = bench::flagValue(argc, argv, i, 0.0, 1.0); }},
         {"--machines", [&](int &i) {
              machines = bench::flagValue(argc, argv, i, 2u);
          }}});

    std::vector<double> losses;
    if (loss >= 0.0)
        losses.push_back(loss);
    else if (quick)
        losses = {0.02};
    else
        losses = {0.005, 0.02, 0.05};

    bench::printHeader(strprintf(
        "Wire storm: %u machines, 64 QPs/machine, loss x incast x "
        "mode — goodput, retransmits, p99, protection faults",
        machines));

    Table t({"mode", "loss", "incast", "cycles/op", "goodput kop/s",
             "rtx/op", "p99 us", "late flt", "late land", "cong drop",
             "qp err"});
    bench::JsonWriter json("wire_storm", args.threads);
    for (const double l : losses) {
        for (const bool incast : {false, true}) {
            for (const dma::ProtectionMode mode :
                 bench::evaluatedModes()) {
                const StormPoint pt = runStorm(
                    mode, l, incast, machines, args.threads, quick);
                const workloads::FleetReport &r = pt.rep;
                const double good = static_cast<double>(
                    r.completions - r.comp_errors);
                const double goodput_kops =
                    r.end_ns ? good /
                                   (static_cast<double>(r.end_ns) * 1e-9) /
                                   1e3
                             : 0.0;
                const double rtx_per_op =
                    r.completions ? static_cast<double>(r.retransmits) /
                                        static_cast<double>(r.completions)
                                  : 0.0;
                t.addRow(dma::modeName(mode),
                         {l, static_cast<double>(incast),
                          r.cycles_per_op, goodput_kops, rtx_per_op,
                          static_cast<double>(r.p99_latency_ns) / 1e3,
                          static_cast<double>(r.late_faulted),
                          static_cast<double>(r.late_landed),
                          static_cast<double>(r.wire_congestion_drops),
                          static_cast<double>(r.qp_errors)},
                         3);
                json.beginRow();
                json.add("mode", dma::modeName(pt.mode));
                json.add("variant", "storm");
                json.add("loss", l);
                json.add("incast", static_cast<u64>(incast));
                json.add("machines", static_cast<u64>(machines));
                json.add("cycles_per_op", r.cycles_per_op);
                json.add("completions", r.completions);
                json.add("posts", r.posts);
                json.add("comp_errors", r.comp_errors);
                json.add("goodput_kops", goodput_kops);
                json.add("retransmits", r.retransmits);
                json.add("rto_fires", r.rto_fires);
                json.add("nak_seq", r.nak_seq);
                json.add("qp_errors", r.qp_errors);
                json.add("qp_error_recovered", r.qp_error_recovered);
                json.add("late_arrivals", r.late_arrivals);
                json.add("late_faulted", r.late_faulted);
                json.add("late_landed", r.late_landed);
                json.add("wire_drops", r.wire_drops);
                json.add("wire_dups", r.wire_dups);
                json.add("wire_delays", r.wire_delays);
                json.add("wire_congestion_drops",
                         r.wire_congestion_drops);
                json.add("p50_ns", static_cast<u64>(r.p50_latency_ns));
                json.add("p99_ns", static_cast<u64>(r.p99_latency_ns));
            }
        }
    }
    std::printf("%s\n", t.toString().c_str());

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
