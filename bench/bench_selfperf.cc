/**
 * @file
 * Simulator self-performance: how fast does the HOST execute the
 * simulation? Every other bench in this directory reports simulated
 * metrics (cycles, Gbps); this one reports host wall-clock, simulated
 * packets per host-second, and DES events per host-second, for the
 * same four-lane sweep on the sequential engine (--threads 1) and on
 * up to one thread per lane (--threads N).
 *
 * The workload is four independent Netperf-stream runs — strict,
 * defer, riommu, none — one engine lane each, the exact shape
 * workloads/sweep.h gives every mode sweep. Simulated results are
 * asserted identical across both configurations: threads may only
 * change how fast the host gets there, never where it lands.
 * (Byte-level enforcement of the same property on real bench output
 * is the golden_selfperf check row: bench_fig7 at --threads 4 against
 * --threads 1.)
 *
 * Speedup expectations are hardware-dependent: lanes outnumbering
 * physical cores — or a 1-CPU CI box — serialize the threads, so the
 * table reports whatever the host delivers; see EXPERIMENTS.md.
 */
#include "bench_common.h"

#include <array>
#include <chrono>

#include "base/logging.h"
#include "des/parallel.h"
#include "workloads/stream.h"

using namespace rio;

namespace {

struct SelfResult
{
    double host_ms = 0;
    u64 events = 0;
    u64 packets = 0;
    double check = 0; //!< determinism probe: sum of cycles_per_packet
};

constexpr std::array<dma::ProtectionMode, 4> kModes = {
    dma::ProtectionMode::kStrict, dma::ProtectionMode::kDefer,
    dma::ProtectionMode::kRiommu, dma::ProtectionMode::kNone};

SelfResult
runConfig(unsigned threads, const workloads::StreamParams &params)
{
    const auto t0 = std::chrono::steady_clock::now();

    des::ParallelEngine eng(threads);
    std::vector<std::unique_ptr<workloads::StreamRun>> runs;
    for (const dma::ProtectionMode mode : kModes) {
        des::Lane &lane = eng.addLane();
        runs.push_back(std::make_unique<workloads::StreamRun>(
            lane.sim(), mode, nic::mlxProfile(), params));
    }
    eng.run();

    SelfResult sr;
    sr.events = eng.eventsRun();
    for (auto &run : runs) {
        const workloads::RunResult r = run->collect();
        sr.packets += r.tx_packets + r.rx_packets;
        sr.check += r.cycles_per_packet;
    }
    sr.host_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return sr;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, {{"--quick", [&](int &) { quick = true; }}});

    workloads::StreamParams params =
        workloads::streamParamsFor(nic::mlxProfile());
    params.measure_packets = bench::scaled(quick ? 8000 : 40000);
    params.warmup_packets = bench::scaled(quick ? 2000 : 10000);

    // The threaded config uses --threads when given, else one thread per
    // lane — the engine's sweet spot for this four-lane workload.
    const unsigned par = args.threads > 1 ? args.threads : 4;
    bench::printHeader(
        strprintf("Simulator self-performance: 4-lane mode sweep, "
                  "sequential vs %u threads", par));

    struct Config
    {
        const char *label;
        unsigned threads;
    };
    const std::array<Config, 2> configs = {{{"seq", 1}, {"par", par}}};

    std::array<SelfResult, 2> results;
    for (size_t i = 0; i < configs.size(); ++i)
        results[i] = runConfig(configs[i].threads, params);

    // Determinism across both configurations: same events, same
    // packets, same simulated costs.
    for (size_t i = 1; i < configs.size(); ++i) {
        RIO_ASSERT(results[i].events == results[0].events,
                   "config ", configs[i].label, " ran ",
                   results[i].events, " events, seq ran ",
                   results[0].events);
        RIO_ASSERT(results[i].packets == results[0].packets &&
                       results[i].check == results[0].check,
                   "config ", configs[i].label,
                   " diverged from the sequential run");
    }

    Table t({"config", "threads", "host ms", "events/s (M)",
             "sim pkts/s (K)", "speedup vs seq"});
    bench::JsonWriter json("selfperf", args.threads);
    for (size_t i = 0; i < configs.size(); ++i) {
        const SelfResult &sr = results[i];
        const double evps = static_cast<double>(sr.events) /
                            (sr.host_ms * 1e3); // M events / s
        const double ppks = static_cast<double>(sr.packets) /
                            sr.host_ms; // K pkts / s
        const double speedup = results[0].host_ms / sr.host_ms;
        t.addRow(configs[i].label,
                 {static_cast<double>(configs[i].threads), sr.host_ms,
                  evps, ppks, speedup},
                 2);
        json.beginRow();
        json.add("config", configs[i].label);
        json.add("threads", static_cast<u64>(configs[i].threads));
        json.add("host_ms", sr.host_ms);
        json.add("events", sr.events);
        json.add("sim_packets", sr.packets);
        json.add("events_per_sec", static_cast<double>(sr.events) /
                                       (sr.host_ms * 1e-3));
        json.add("sim_packets_per_sec",
                 static_cast<double>(sr.packets) / (sr.host_ms * 1e-3));
        json.add("speedup_vs_seq", speedup);
    }
    std::printf("%s\n", t.toString().c_str());
    std::printf("events per run: %llu; simulated packets per run: %llu\n",
                static_cast<unsigned long long>(results[0].events),
                static_cast<unsigned long long>(results[0].packets));

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
