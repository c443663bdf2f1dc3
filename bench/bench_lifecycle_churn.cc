/**
 * @file
 * Lifecycle churn: cycles/packet under surprise hot-unplug/replug
 * storms. Sweeps unplug rates (default 0 / 0.5 / 2 events per
 * millisecond of virtual time) over the seven evaluated protection
 * modes running the Netperf stream workload on the mlx setup, with
 * the same measurement window as bench_fig7.
 *
 * Expected shape: at rate 0 the churn subsystem draws no random
 * numbers and schedules nothing, so the numbers are bit-identical to
 * bench_fig7 — the rate-0 JSON rows deliberately carry fig7's exact
 * fields and the golden_lifecycle check row compares the two. With
 * churn on, every mode completes with zero leaked mappings; the
 * strict modes pay the most per event because recovering a vanished
 * device's mappings eats a synchronous invalidation time-out per
 * unmapped ring entry, while the deferred and rIOMMU modes never spin
 * on the dead device — the rIOMMU modes re-walk just one ring per
 * unplug.
 */
#include "bench_common.h"

#include <string>
#include <vector>

#include "cycles/cycle_account.h"

using namespace rio;
using cycles::Cat;

namespace {

struct Row
{
    dma::ProtectionMode mode;
    double rate; //!< churn events per millisecond
    double inv, pt, iova, lifecycle, other, total, ratio;
    workloads::RunResult r;
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<double> rates = {0, 0.5, 2};
    u64 churn_seed = 1;
    Nanos down_ns = 20000;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--rate",
          [&](int &i) { rates = bench::flagList(argc, argv, i, 0.0); }},
         {"--seed",
          [&](int &i) {
              churn_seed = bench::flagValue<u64>(argc, argv, i, 0);
          }},
         {"--down", [&](int &i) {
              down_ns = bench::flagValue<Nanos>(argc, argv, i, 1);
          }}});

    bench::printHeader("Lifecycle churn: cycles/packet vs surprise "
                       "unplug/replug rate, Netperf stream on mlx");

    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = bench::scaled(40000);
    params.warmup_packets = bench::scaled(10000);

    std::vector<Row> rows;
    for (double rate : rates) {
        for (dma::ProtectionMode mode : bench::evaluatedModes()) {
            workloads::StreamParams p = params;
            p.churn_per_ms = rate;
            p.churn_seed = churn_seed;
            p.churn_down_ns = down_ns;
            Row row;
            row.mode = mode;
            row.rate = rate;
            row.r = workloads::runStream(mode, nic::mlxProfile(), p);
            const double pkts = static_cast<double>(row.r.tx_packets);
            row.inv = static_cast<double>(
                          row.r.acct.get(Cat::kUnmapIotlbInv)) /
                      pkts;
            row.pt = static_cast<double>(
                         row.r.acct.get(Cat::kMapPageTable) +
                         row.r.acct.get(Cat::kUnmapPageTable)) /
                     pkts;
            row.iova = static_cast<double>(
                           row.r.acct.get(Cat::kMapIovaAlloc) +
                           row.r.acct.get(Cat::kUnmapIovaFind) +
                           row.r.acct.get(Cat::kUnmapIovaFree)) /
                       pkts;
            row.lifecycle =
                static_cast<double>(row.r.acct.get(Cat::kLifecycle)) /
                pkts;
            row.total = row.r.cycles_per_packet;
            row.other = row.total - row.inv - row.pt - row.iova -
                        row.lifecycle;
            rows.push_back(row);
        }
        // none runs last within each rate group, as in fig7.
        const double c_none = rows.back().total;
        for (size_t i = rows.size() - bench::evaluatedModes().size();
             i < rows.size(); ++i)
            rows[i].ratio = rows[i].total / c_none;
    }

    Table t({"rate/ms", "mode", "iotlb inv", "page table", "iova",
             "lifecycle", "other", "C (total)", "C/C_none", "unplugs",
             "replugs", "detach flt", "Gbps"});
    for (const Row &row : rows)
        t.addRow({Table::num(row.rate, 1), dma::modeName(row.mode),
                  Table::num(row.inv, 0), Table::num(row.pt, 0),
                  Table::num(row.iova, 0),
                  Table::num(row.lifecycle, 0),
                  Table::num(row.other, 0), Table::num(row.total, 0),
                  Table::num(row.ratio, 2),
                  strprintf("%llu",
                            (unsigned long long)row.r.surprise_unplugs),
                  strprintf("%llu", (unsigned long long)row.r.replugs),
                  strprintf("%llu",
                            (unsigned long long)row.r.detach_faults),
                  Table::num(row.r.throughput_gbps, 2)});
    std::printf("%s\n", t.toString().c_str());
    std::printf("expected: rate 0 matches bench_fig7 exactly (zero "
                "unplugs, zero lifecycle cycles); with churn on, the "
                "strict modes pay a large lifecycle bar (a synchronous "
                "invalidation time-out per orphaned mapping), while "
                "the deferred and riommu modes recover without "
                "spinning (zero lifecycle cycles; riommu re-walks one "
                "ring per unplug) and slower modes absorb more events "
                "per packet because churn runs in virtual time\n");

    bench::JsonWriter json("lifecycle_churn", args.threads);
    for (const Row &row : rows) {
        json.beginRow();
        // Rate-0 rows carry exactly fig7's fields, in fig7's order:
        // the golden_lifecycle check row (scripts/check.py) compares
        // `--rate 0` output with the fig7 golden, bench name aside.
        json.add("mode", dma::modeName(row.mode));
        json.add("iotlb_inv", row.inv);
        json.add("page_table", row.pt);
        json.add("iova", row.iova);
        json.add("other", row.other);
        json.add("total", row.total);
        json.add("ratio_vs_none", row.ratio);
        if (row.rate > 0) {
            json.add("rate_per_ms", row.rate);
            json.add("lifecycle", row.lifecycle);
            json.add("surprise_unplugs", row.r.surprise_unplugs);
            json.add("replugs", row.r.replugs);
            json.add("detach_faults", row.r.detach_faults);
            json.add("throughput_gbps", row.r.throughput_gbps);
        }
    }
    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
