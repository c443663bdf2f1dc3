/**
 * @file
 * Multi-core scaling of the seven IOMMU modes: K independent Netperf
 * stream flows, each pinned to its own core and NIC, all sharing one
 * DmaContext. §3.2 of the paper argues the baseline Linux design
 * cannot scale because every map/unmap serializes on the context-
 * global IOVA-allocator lock and on the invalidation-queue tail
 * register; rIOMMU touches only per-ring state. This bench measures
 * exactly that: aggregate cycles per packet and lock-wait cycles per
 * packet as the core count doubles.
 *
 * Expected shape: strict/defer per-packet cost grows with cores
 * (nonzero, rising lock-wait share); riommu/riommu- lock-wait is
 * exactly zero and per-packet cost stays flat.
 */
#include "bench_common.h"

#include <charconv>
#include <optional>

#include "cycles/cycle_account.h"
#include "workloads/stream.h"

using namespace rio;

namespace {

/** Parse a `--cores` value: comma-separated positive core counts. */
std::optional<std::vector<unsigned>>
parseCoreCounts(std::string_view list)
{
    std::vector<unsigned> counts;
    for (;;) {
        const size_t comma = list.find(',');
        const std::string_view item = list.substr(0, comma);
        unsigned v = 0;
        const char *end = item.data() + item.size();
        const auto [ptr, ec] = std::from_chars(item.data(), end, v);
        if (ec != std::errc() || ptr != end || v == 0)
            return std::nullopt;
        counts.push_back(v);
        if (comma == std::string_view::npos)
            return counts;
        list.remove_prefix(comma + 1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);

    // `--cores 1,2,4` overrides the default sweep (the golden-output
    // regression test pins {1,2} for a fast deterministic run).
    std::vector<unsigned> core_counts = {1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) != "--cores")
            continue;
        const auto counts = i + 1 < argc ? parseCoreCounts(argv[i + 1])
                                         : std::nullopt;
        if (!counts) {
            std::fprintf(stderr,
                         "usage: %s [--cores N[,N...]]: each N is a "
                         "positive core count\n",
                         argv[0]);
            return 2;
        }
        core_counts = *counts;
    }

    bench::printHeader(
        "Scaling: cycles/packet vs core count, Netperf stream x K "
        "flows on one DmaContext (mlx)");

    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = bench::scaled(20000);
    params.warmup_packets = bench::scaled(5000);

    struct Row
    {
        dma::ProtectionMode mode;
        workloads::ScalingResult r;
    };
    std::vector<Row> rows;
    for (dma::ProtectionMode mode : bench::evaluatedModes())
        for (unsigned cores : core_counts)
            rows.push_back({mode, workloads::runStreamScaling(
                                      mode, nic::mlxProfile(), cores,
                                      params)});

    Table t({"mode", "cores", "cycles/pkt", "lock wait/pkt",
             "lock wait %", "vs 1 core", "iova contended",
             "qi contended"});
    const Row *base = nullptr;
    for (const Row &row : rows) {
        if (row.r.cores == core_counts.front() || !base)
            base = &row;
        const double wait_pct = 100.0 * row.r.lock_wait_per_packet /
                                row.r.cycles_per_packet;
        t.addRow({dma::modeName(row.mode),
                  strprintf("%u", row.r.cores),
                  Table::num(row.r.cycles_per_packet, 0),
                  Table::num(row.r.lock_wait_per_packet, 0),
                  Table::num(wait_pct, 1),
                  Table::num(row.r.cycles_per_packet /
                                 base->r.cycles_per_packet,
                             2),
                  strprintf("%llu", (unsigned long long)
                                        row.r.iova_lock.contended),
                  strprintf("%llu", (unsigned long long)
                                        row.r.inval_lock.contended)});
    }
    std::printf("%s\n", t.toString().c_str());
    std::printf("expected: strict/defer grow with cores (lock wait > 0); "
                "riommu/riommu-/none stay flat with zero lock wait\n");

    bench::JsonWriter json("scaling_cores", args.threads);
    for (const Row &row : rows) {
        json.beginRow();
        json.add("mode", dma::modeName(row.mode));
        json.add("cores", row.r.cores);
        json.add("tx_packets", row.r.tx_packets);
        json.add("cycles_per_packet", row.r.cycles_per_packet);
        json.add("lock_wait_per_packet", row.r.lock_wait_per_packet);
        json.add("throughput_gbps", row.r.throughput_gbps);
        json.add("iova_lock_acquisitions", row.r.iova_lock.acquisitions);
        json.add("iova_lock_contended", row.r.iova_lock.contended);
        json.add("iova_lock_wait_cycles", row.r.iova_lock.wait_cycles);
        json.add("inval_lock_acquisitions",
                 row.r.inval_lock.acquisitions);
        json.add("inval_lock_contended", row.r.inval_lock.contended);
        json.add("inval_lock_wait_cycles", row.r.inval_lock.wait_cycles);
    }
    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
