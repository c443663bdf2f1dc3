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
 * flushes its WQEs as error CQEs — no post may vanish. Every gate is
 * a rule of workloads::fleetViolations, which every fleet caller
 * shares.
 *
 * `--loss 0` is an ordinary point: the same sweep on an unarmed wire
 * (only the ingress cap of the incast points stays), reliability on.
 */
#include "bench_common.h"

#include <string>
#include <vector>

#include "workloads/fleet.h"

using namespace rio;

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
                // CQE conservation, the late-arrival tiers and a
                // leak-free quiesce (file header) are asserted inside.
                const workloads::FleetReport r = bench::runStormPoint(
                    mode, l, incast, /*churn=*/true, machines, quick);
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
                json.add("mode", dma::modeName(mode));
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
