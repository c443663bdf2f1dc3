/**
 * @file
 * Virtualization sweep (DESIGN.md §10): cycles per packet for the
 * seven protection modes on each execution platform — bare metal and
 * guest VMs under the emulated, shadow and nested vIOMMU strategies —
 * for Netperf stream and Netperf RR on the mlx setup.
 *
 * The headline result: virtualization *widens* rIOMMU's advantage.
 * The baselines' map/unmap path is MMIO-driven, so every packet eats
 * vmexits (emulated/shadow) or 24-reference 2-D walks (nested), while
 * rIOMMU's memory-only protocol needs no exits after its registration
 * hypercalls and its flat table costs a nested miss at most 5
 * references. C_strict - C_riommu is strictly larger on every guest
 * platform than on bare metal.
 *
 * --platform bare reproduces bench_fig7 byte for byte (the golden_virt
 * invariant: an idle virtualization layer is a perfect no-op).
 */
#include "bench_common.h"

#include "cycles/cycle_account.h"
#include "virt/platform.h"
#include "workloads/sweep.h"

using namespace rio;
using cycles::Cat;

namespace {

/** Exactly bench_fig7's flow, so --platform bare stays byte-identical
 * to the checked-in fig7 golden (modulo the bench name). */
int
runBareGolden(const bench::BenchArgs &args)
{
    bench::printHeader("Virtualization, bare platform: identical to "
                       "Figure 7 (golden_virt invariant)");

    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = bench::scaled(40000);
    params.warmup_packets = bench::scaled(10000);

    struct Row
    {
        dma::ProtectionMode mode;
        double inv, pt, iova, other, total;
    };
    std::vector<workloads::StreamJob> jobs;
    for (dma::ProtectionMode mode : bench::evaluatedModes())
        jobs.push_back({mode, nic::mlxProfile(), params});
    const std::vector<workloads::RunResult> results =
        workloads::runStreamJobs(jobs, args.threads);

    std::vector<Row> rows;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const workloads::RunResult &r = results[i];
        const double pkts = static_cast<double>(r.tx_packets);
        Row row;
        row.mode = jobs[i].mode;
        row.inv =
            static_cast<double>(r.acct.get(Cat::kUnmapIotlbInv)) / pkts;
        row.pt = static_cast<double>(r.acct.get(Cat::kMapPageTable) +
                                     r.acct.get(Cat::kUnmapPageTable)) /
                 pkts;
        row.iova = static_cast<double>(r.acct.get(Cat::kMapIovaAlloc) +
                                       r.acct.get(Cat::kUnmapIovaFind) +
                                       r.acct.get(Cat::kUnmapIovaFree)) /
                   pkts;
        row.total = r.cycles_per_packet;
        row.other = row.total - row.inv - row.pt - row.iova;
        rows.push_back(row);
    }
    const double c_none = rows.back().total; // none is listed last

    Table t({"mode", "iotlb inv", "page table", "iova (de)alloc",
             "other", "C (total)", "C/C_none"});
    for (const Row &row : rows) {
        std::vector<std::string> cells = {dma::modeName(row.mode),
                                          Table::num(row.inv, 0),
                                          Table::num(row.pt, 0),
                                          Table::num(row.iova, 0),
                                          Table::num(row.other, 0),
                                          Table::num(row.total, 0),
                                          Table::num(row.total / c_none,
                                                     2)};
        t.addRow(cells);
    }
    std::printf("%s\n", t.toString().c_str());

    bench::JsonWriter json("virt_bare", args.threads);
    for (const Row &row : rows) {
        json.beginRow();
        json.add("mode", dma::modeName(row.mode));
        json.add("iotlb_inv", row.inv);
        json.add("page_table", row.pt);
        json.add("iova", row.iova);
        json.add("other", row.other);
        json.add("total", row.total);
        json.add("ratio_vs_none", row.total / c_none);
    }
    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}

/**
 * Huge-page (2 MB) stage-2 ablation (--huge): the ROADMAP perf-debt
 * item. Nested stream runs for every mode with 4K vs 2 MB stage-2
 * leaves; each stage-2 resolution in the 2-D walk reads one fewer
 * table, cutting a radix nested miss from 24 to 19 combined
 * references and an rIOMMU flat miss from 5 to 4 (virt_test pins).
 */
int
runHugeAblation(const bench::BenchArgs &args)
{
    bench::printHeader("Huge-page (2 MB) stage-2 ablation, nested "
                       "platform: Netperf stream on mlx");

    workloads::StreamParams sp =
        workloads::streamParamsFor(nic::mlxProfile());
    sp.measure_packets = bench::scaled(40000);
    sp.warmup_packets = bench::scaled(10000);
    sp.platform = virt::Platform::kNested;

    std::vector<workloads::StreamJob> jobs;
    for (const bool huge : {false, true}) {
        sp.huge_stage2 = huge;
        for (const dma::ProtectionMode mode : bench::evaluatedModes())
            jobs.push_back({mode, nic::mlxProfile(), sp});
    }
    const std::vector<workloads::RunResult> results =
        workloads::runStreamJobs(jobs, args.threads);

    // The walk cost is device-side latency (uncharged to the core),
    // so the ablation metric is combined memory references per
    // (r)IOTLB-miss walk, not cycles/packet: 24 -> 19 for radix
    // modes, 5 -> 4 for rIOMMU (virt_test pins the exact counts).
    const auto refs_per_walk = [](const workloads::RunResult &r) {
        return r.walks ? static_cast<double>(r.walk_mem_refs) /
                             static_cast<double>(r.walks)
                       : 0.0;
    };
    const size_t nmodes = bench::evaluatedModes().size();
    bench::JsonWriter json("virt_huge", args.threads);
    Table t({"mode", "walks", "refs/walk 4K", "refs/walk 2MB",
             "saved/walk"});
    for (size_t mi = 0; mi < nmodes; ++mi) {
        const dma::ProtectionMode mode = bench::evaluatedModes()[mi];
        const workloads::RunResult &r4k = results[mi];
        const workloads::RunResult &r2m = results[nmodes + mi];
        const double f4k = refs_per_walk(r4k);
        const double f2m = refs_per_walk(r2m);
        t.addRow(dma::modeName(mode),
                 {static_cast<double>(r4k.walks), f4k, f2m, f4k - f2m},
                 2);
        json.beginRow();
        json.add("mode", dma::modeName(mode));
        json.add("walks", static_cast<double>(r4k.walks));
        json.add("refs_per_walk_4k", f4k);
        json.add("refs_per_walk_2m", f2m);
        json.add("saved_per_walk", f4k - f2m);
    }
    std::printf("%s\n", t.toString().c_str());

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string which = "all";
    bool huge = false;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--platform",
          [&](int &i) { which = bench::flagText(argc, argv, i); }},
         {"--huge", [&](int &) { huge = true; }}});

    if (huge)
        return runHugeAblation(args);
    if (which == "bare")
        return runBareGolden(args);

    std::vector<virt::Platform> platforms;
    if (which == "all") {
        platforms.assign(virt::kAllPlatforms.begin(),
                         virt::kAllPlatforms.end());
    } else {
        const auto p = virt::parsePlatform(which);
        if (!p)
            bench::flagUsage(argv, "--platform",
                             "all, bare, emulated, shadow or nested");
        // Always include bare for the advantage comparison.
        platforms = {virt::Platform::kBare, *p};
    }

    bench::printHeader("Virtualization: cycles/packet by platform, "
                       "Netperf stream + RR on mlx");
    bench::JsonWriter json("virt_platforms", args.threads);

    workloads::StreamParams sp =
        workloads::streamParamsFor(nic::mlxProfile());
    sp.measure_packets = bench::scaled(40000);
    sp.warmup_packets = bench::scaled(10000);

    // mode x platform totals so the advantage summary can be computed.
    std::vector<std::vector<double>> totals(
        bench::evaluatedModes().size(),
        std::vector<double>(platforms.size(), 0.0));

    // The whole platform x mode grid is one sweep: every cell is an
    // independent run, so all of them go to the engine at once.
    std::vector<workloads::StreamJob> sjobs;
    for (const virt::Platform platform : platforms) {
        sp.platform = platform;
        for (const dma::ProtectionMode mode : bench::evaluatedModes())
            sjobs.push_back({mode, nic::mlxProfile(), sp});
    }
    const std::vector<workloads::RunResult> sresults =
        workloads::runStreamJobs(sjobs, args.threads);

    for (size_t pi = 0; pi < platforms.size(); ++pi) {
        const virt::Platform platform = platforms[pi];
        struct Cell
        {
            double total, virt_c, exits_pkt;
        };
        std::vector<Cell> cells;
        for (size_t mi = 0; mi < bench::evaluatedModes().size(); ++mi) {
            const workloads::RunResult &r =
                sresults[pi * bench::evaluatedModes().size() + mi];
            const double pkts = static_cast<double>(r.tx_packets);
            totals[mi][pi] = r.cycles_per_packet;
            cells.push_back(
                {r.cycles_per_packet,
                 static_cast<double>(r.acct.get(Cat::kVirt)) / pkts,
                 static_cast<double>(r.vm_exits) / pkts});
        }
        const double c_none = cells.back().total; // none is listed last
        Table t({"mode", "C (total)", "virt", "vmexits/pkt",
                 "C/C_none"});
        for (size_t mi = 0; mi < cells.size(); ++mi) {
            const dma::ProtectionMode mode = bench::evaluatedModes()[mi];
            t.addRow(dma::modeName(mode),
                     {cells[mi].total, cells[mi].virt_c,
                      cells[mi].exits_pkt, cells[mi].total / c_none},
                     2);
            json.beginRow();
            json.add("workload", "stream");
            json.add("platform", virt::platformName(platform));
            json.add("mode", dma::modeName(mode));
            json.add("total", cells[mi].total);
            json.add("virt_cycles", cells[mi].virt_c);
            json.add("vm_exits_per_pkt", cells[mi].exits_pkt);
            json.add("ratio_vs_none", cells[mi].total / c_none);
        }
        std::printf("-- stream, %s --\n%s\n",
                    virt::platformName(platform), t.toString().c_str());
    }

    // Advantage summary: what the guest saves by running rIOMMU
    // instead of strict, per platform. Monotonically growing from
    // bare metal to nested is the PR's acceptance assertion.
    {
        const auto &modes = bench::evaluatedModes();
        size_t strict_i = 0, riommu_i = 0;
        for (size_t i = 0; i < modes.size(); ++i) {
            if (std::string_view(dma::modeName(modes[i])) == "strict")
                strict_i = i;
            if (std::string_view(dma::modeName(modes[i])) == "riommu")
                riommu_i = i;
        }
        Table t({"platform", "C_strict", "C_riommu",
                 "advantage (cycles/pkt)"});
        double adv_bare = 0.0, adv_nested = 0.0;
        bool have_bare = false, have_nested = false;
        for (size_t pi = 0; pi < platforms.size(); ++pi) {
            const double adv = totals[strict_i][pi] - totals[riommu_i][pi];
            if (platforms[pi] == virt::Platform::kBare) {
                adv_bare = adv;
                have_bare = true;
            } else if (platforms[pi] == virt::Platform::kNested) {
                adv_nested = adv;
                have_nested = true;
            }
            t.addRow(virt::platformName(platforms[pi]),
                     {totals[strict_i][pi], totals[riommu_i][pi], adv},
                     1);
            json.beginRow();
            json.add("workload", "advantage");
            json.add("platform", virt::platformName(platforms[pi]));
            json.add("c_strict", totals[strict_i][pi]);
            json.add("c_riommu", totals[riommu_i][pi]);
            json.add("advantage", adv);
        }
        std::printf("-- rIOMMU advantage --\n%s\n", t.toString().c_str());
        if (have_bare && have_nested && adv_nested <= adv_bare) {
            std::fprintf(stderr,
                         "FAIL: nested advantage %.1f <= bare %.1f — "
                         "the 2-D walk should widen the gap\n",
                         adv_nested, adv_bare);
            return 1;
        }
    }

    // RR: latency-sensitive regime — vmexits land directly on the RTT.
    // Each ping-pong PAIR is one job; the grid sweeps in parallel.
    std::vector<workloads::RrJob> rjobs;
    for (const virt::Platform platform : platforms) {
        workloads::RrParams rp = workloads::rrParamsFor(nic::mlxProfile());
        rp.measure_transactions = bench::scaled(4000);
        rp.warmup_transactions = bench::scaled(500);
        rp.platform = platform;
        for (const dma::ProtectionMode mode : bench::evaluatedModes())
            rjobs.push_back({mode, nic::mlxProfile(), rp});
    }
    const std::vector<workloads::RunResult> rresults =
        workloads::runRrJobs(rjobs, args.threads);

    for (size_t pi = 0; pi < platforms.size(); ++pi) {
        const virt::Platform platform = platforms[pi];
        Table t({"mode", "rtt (us)", "vmexits/txn", "cpu (%)"});
        for (size_t mi = 0; mi < bench::evaluatedModes().size(); ++mi) {
            const dma::ProtectionMode mode = bench::evaluatedModes()[mi];
            const workloads::RunResult &r =
                rresults[pi * bench::evaluatedModes().size() + mi];
            const double rtt_us = 1e6 / r.transactions_per_sec;
            const double exits_txn =
                static_cast<double>(r.vm_exits) /
                static_cast<double>(r.transactions);
            t.addRow(dma::modeName(mode),
                     {rtt_us, exits_txn, r.cpu * 100.0}, 2);
            json.beginRow();
            json.add("workload", "rr");
            json.add("platform", virt::platformName(platform));
            json.add("mode", dma::modeName(mode));
            json.add("rtt_us", rtt_us);
            json.add("vm_exits_per_txn", exits_txn);
        }
        std::printf("-- rr, %s --\n%s\n", virt::platformName(platform),
                    t.toString().c_str());
    }

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
