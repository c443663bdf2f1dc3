/**
 * @file
 * perfbench: the repo benchmark's program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size full|tiny] [--trace-out <path>] [--commit <sha>]
 *
 * Repeats the workload's batch job until --seconds have passed (at
 * least kMinReps times), gates every repetition's outputs, and prints
 * every metric by name with its unit and sample count, then one JSON
 * result line: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. A --trace 1 run alternates untraced and
 * traced repetitions (the traced ones record spans around every call
 * into a simulator module), then runs the layer probes. Exit status
 * is 0 only if every check passed.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/slo.h"

namespace perfbench {
namespace {

/** A reported metric. BENCHMARK.json declares the same names and
 * units, with the bounds the comparison uses. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported with --trace 0. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_ops_per_s", "1/s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"riommu.cycles_per_op", "cycles"},
    {"strict.cycles_per_op", "cycles"},
};

/** Per-layer metrics, reported with --trace 1 (0 where a workload
 * never exercises the layer). */
std::vector<MetricDef>
perLayer()
{
    std::vector<MetricDef> v = {
        {"des.events", "count"},
        {"des.windows", "count"},
        {"des.events_per_window", "count"},
        {"des.mail", "count"},
        {"des.run_s", "s"},
        {"des.host_ns_per_event", "ns"},
        {"sys.setup_s", "s"},
        {"workloads.setup_s", "s"},
        {"virt.setup_s", "s"},
        {"migrate.start_s", "s"},
        {"sys.quiesce_s", "s"},
        {"sys.leakcheck_s", "s"},
        {"wire.drops", "count"},
        {"wire.dups", "count"},
        {"wire.congestion_drops", "count"},
        {"wire.peak_queue", "count"},
        {"dma.riommu.map_cycles", "cycles"},
        {"dma.riommu.unmap_cycles", "cycles"},
        {"dma.strict.map_cycles", "cycles"},
        {"dma.strict.unmap_cycles", "cycles"},
        {"dma.riommu.map_ns", "ns"},
        {"dma.riommu.unmap_ns", "ns"},
        {"dma.strict.map_ns", "ns"},
        {"dma.strict.unmap_ns", "ns"},
        {"iova.linux.alloc_free_ns", "ns"},
        {"iova.magazine.alloc_free_ns", "ns"},
        {"iotlb.hits", "count"},
        {"iotlb.misses", "count"},
        {"iotlb.hit_ratio", "ratio"},
        {"iommu.walk_refs_per_walk", "count"},
        {"qi.syncs", "count"},
        {"iommu.translate_ns", "ns"},
        {"riotlb.implicit_invalidations", "count"},
        {"rdcache.hot_hit_ratio", "ratio"},
        {"riommu.translate_ns", "ns"},
        {"nic.avg_unmap_burst", "count"},
        {"nic.tx_ring_occupancy", "count"},
        {"rdma.posts", "count"},
        {"rdma.posts_blocked", "count"},
        {"rdma.completions", "count"},
        {"rdma.retransmits", "count"},
        {"rdma.rto_fires", "count"},
        {"rdma.qp_errors", "count"},
        {"rdma.avg_burst", "count"},
        {"rdma.p50_us", "us"},
        {"virt.vm_exits", "count"},
        {"virt.walk_refs", "count"},
        {"migrate.rounds", "count"},
        {"migrate.pages_shipped", "count"},
        {"migrate.pages_reshipped", "count"},
        {"migrate.state_bytes", "bytes"},
        {"migrate.live_rings", "count"},
        {"migrate.total_us", "us"},
        {"obs.snapshot_s", "s"},
        {"obs.trace_overhead_pct", "%"},
        // Workload-specific modelled headlines (0 where not applicable).
        {"riommu.p99_us", "us"},
        {"strict.p99_us", "us"},
        {"riommu.blackout_us", "us"},
        {"strict.blackout_us", "us"},
        {"model_err_pct", "%"},
    };
    static std::vector<std::string> names; // owns the generated names
    if (names.empty()) {
        for (const char *mode : {"riommu", "strict"})
            for (const char *cat : kCatSlugs)
                names.push_back(std::string("cycles.") + mode + "." + cat);
        for (const rio::dma::ProtectionMode mode : rio::dma::kEvaluatedModes)
            if (mode != rio::dma::ProtectionMode::kRiommu &&
                mode != rio::dma::ProtectionMode::kStrict)
                names.push_back("cycles_per_op." + modeSlug(mode));
        for (const char *mod : {"des", "sys", "workloads", "virt", "migrate",
                                "dma", "iova", "iommu", "riommu", "cycles",
                                "nic", "rdma", "obs"})
            names.push_back(std::string("self_s.") + mod);
    }
    for (const std::string &n : names) {
        const bool self = n.rfind("self_s.", 0) == 0;
        v.push_back({n.c_str(), self ? "s" : "cycles"});
    }
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host-time estimator: the median of the fastest quarter of the
 * repetitions. Interference from other work on the host only ever
 * adds time, and it comes in episodes seconds long, so the fastest
 * repetitions are the undisturbed ones; taking their median rather
 * than the minimum keeps one lucky repetition from setting the value.
 */
double
quietMedian(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    v.resize((v.size() + 3) / 4);
    return median(v);
}

/** JSON number: all digits, never NaN/inf. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    Size size = Size::kFull;
    std::string trace_out;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--size full|tiny] "
                 "[--trace-out <path>] [--commit <sha>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (a == "--size")
            o.size = std::strcmp(v, "tiny") == 0 ? Size::kTiny : Size::kFull;
        else if (a == "--trace-out")
            o.trace_out = v;
        else if (a == "--commit")
            o.commit = v;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** One repetition plus where its spans live in the tracer. */
struct Sample
{
    Rep rep;
    bool traced = false;
    size_t span_from = 0;
    size_t span_to = 0;
};

constexpr size_t kMinReps = 3;
constexpr size_t kMinTraceReps = 4; // two untraced, two traced
constexpr size_t kMaxReps = 200;

int
run(const Options &o)
{
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (o.workload == cand.name)
            w = &cand;
    if (!w)
        usage(("unknown workload " + o.workload).c_str());

    // Exact per-op records back the fleet p99; part of every workload's
    // definition so all of them run the same code path.
    rio::obs::setSloRecording(true);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "size=%s\n",
                w->name, static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.size == Size::kFull ? "full" : "tiny");
    std::printf("host {\"nproc\": %ld, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"commit\": \"%s\", "
                "\"pool_threads\": %u}\n",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
                __VERSION__, o.commit.c_str(), poolThreads());

    std::vector<std::string> failures;
    Tracer tr;

    std::vector<Sample> samples;
    const size_t min_reps = o.trace ? kMinTraceReps : kMinReps;
    const double deadline = wallNow() + o.seconds;
    while (samples.size() < kMaxReps &&
           (samples.size() < min_reps || wallNow() < deadline)) {
        Sample s;
        s.traced = o.trace && samples.size() % 2 == 1;
        tr.setEnabled(s.traced);
        s.span_from = tr.spans().size();
        s.rep = w->run(o.seed, o.size, tr);
        s.span_to = tr.spans().size();
        samples.push_back(std::move(s));
    }
    tr.setEnabled(false);
    const double peak_rss_mb = peakRssMb();

    // The engine's worker pool must reproduce the single-threaded
    // run exactly. It is checked, not timed: its host time swings with
    // how many CPUs the host can spare at the moment.
    std::string pooled;
    if (w->pooled)
        pooled = w->pooled(o.seed, o.size, tr).fingerprint();

    // ---- correctness gate ---------------------------------------------
    u64 attempted = 0;
    u64 failed = 0;
    const std::string first = samples.front().rep.fingerprint();
    for (size_t i = 0; i < samples.size(); ++i) {
        const Rep &r = samples[i].rep;
        attempted += r.attempted;
        failed += r.op_errors;
        if (r.op_errors)
            failures.push_back("repetition " + std::to_string(i) + ": " +
                               std::to_string(r.op_errors) +
                               " simulated ops completed in error");
        for (const std::string &v : r.violations)
            failures.push_back("repetition " + std::to_string(i) + ": " + v);
        failed += r.violations.size();
        if (r.fingerprint() != first) {
            failures.push_back("repetition " + std::to_string(i) +
                               ": modelled results differ from repetition 0");
            ++failed;
        }
    }
    if (!pooled.empty() && pooled != first) {
        failures.push_back("modelled results on the engine pool differ "
                           "from the single-threaded run");
        ++failed;
    }

    const Rep &rep0 = samples.front().rep;
    std::map<std::string, double> values;
    std::map<std::string, size_t> counts;
    const auto put = [&](const std::string &k, double v, size_t n) {
        values[k] = v;
        counts[k] = n;
    };
    std::vector<const Sample *> untraced, traced;
    for (const Sample &s : samples)
        (s.traced ? traced : untraced).push_back(&s);
    const auto med = [](const std::vector<const Sample *> &set,
                        auto field) {
        std::vector<double> v;
        for (const Sample *s : set)
            v.push_back(field(*s));
        return quietMedian(v);
    };

    const auto setup = [](const Sample &s) { return s.rep.setup_s; };
    const auto wall = [](const Sample &s) { return s.rep.run_wall_s; };
    const auto cpu = [](const Sample &s) { return s.rep.run_cpu_s; };

    std::vector<MetricDef> defs;
    if (!o.trace) {
        defs = kEndToEnd;
        const size_t n = untraced.size();
        put("setup_s", med(untraced, setup), n);
        put("sim_ops_per_s",
            static_cast<double>(rep0.sim_ops) / med(untraced, wall), n);
        put("cpu_s", med(untraced, cpu), n);
        put("peak_rss_mb", peak_rss_mb, 1);
        for (const char *k : {"riommu.cycles_per_op", "strict.cycles_per_op"})
            put(k, rep0.modelled.at(k), samples.size());
    } else {
        defs = perLayer();
        for (const auto &[k, v] : rep0.modelled)
            put(k, v, samples.size());
        const size_t n = traced.size();
        const auto span_med = [&](std::vector<const char *> names) {
            return med(traced, [&](const Sample &s) {
                double sum = 0;
                for (const char *name : names)
                    sum += tr.total(name, s.span_from, s.span_to);
                return sum;
            });
        };
        put("des.run_s", span_med({"des.run", "workloads.runFleet"}), n);
        put("des.host_ns_per_event",
            1e9 * values["des.run_s"] / values["des.events"], n);
        put("sys.setup_s", span_med({"sys.Cluster", "sys.bringUp"}), n);
        put("workloads.setup_s", span_med({"workloads.StreamRun"}), n);
        put("virt.setup_s", span_med({"virt.Guest"}), n);
        put("migrate.start_s",
            span_med({"migrate.Migrator", "migrate.start"}), n);
        put("sys.quiesce_s", span_med({"sys.quiesce"}), n);
        put("sys.leakcheck_s", span_med({"sys.checkLeaks"}), n);
        put("obs.snapshot_s", span_med({"obs.snapshot"}), n);
        put("obs.trace_overhead_pct",
            100.0 * (med(traced, cpu) / med(untraced, cpu) - 1.0),
            samples.size());

        // Per-module self time: spans of the traced repetitions, plus
        // the probe spans of the layers reached only from inside the
        // simulation.
        std::map<std::string, std::vector<double>> self;
        for (const Sample *s : traced)
            for (const auto &[mod, t] :
                 tr.selfByModule(s->span_from, s->span_to))
                self[mod].push_back(t);
        std::map<std::string, double> probe;
        const ProbeShape &shape = rep0.shape;
        std::printf("probe shape: %llu live mappings, burst %u, %u bytes, "
                    "%zu rings\n",
                    static_cast<unsigned long long>(shape.live), shape.burst,
                    shape.bytes, shape.ring_sizes.size());
        tr.setEnabled(true);
        const size_t probe_from = tr.spans().size();
        const u64 probe_failures = runProbes(rep0.shape, tr, probe);
        tr.setEnabled(false);
        if (probe_failures) {
            failures.push_back(std::to_string(probe_failures) +
                               " probe operations failed");
            failed += probe_failures;
        }
        for (const auto &[k, v] : probe)
            put(k, v, 1);
        const auto probe_self =
            tr.selfByModule(probe_from, tr.spans().size());
        for (const auto &[mod, times] : self)
            put("self_s." + mod, quietMedian(times), times.size());
        for (const auto &[mod, t] : probe_self)
            put("self_s." + mod, values["self_s." + mod] + t,
                std::max<size_t>(counts["self_s." + mod], 1));
    }

    // ---- report ----------------------------------------------------------
    std::printf("repetitions: %zu (untraced %zu, traced %zu)\n",
                samples.size(), untraced.size(), traced.size());
    for (size_t i = 0; i < samples.size(); ++i) {
        const Rep &r = samples[i].rep;
        std::printf("rep %zu%s: setup %.6f s, run %.6f s wall, %.6f s cpu, "
                    "%llu ops\n",
                    i, samples[i].traced ? " (traced)" : "", r.setup_s,
                    r.run_wall_s, r.run_cpu_s,
                    static_cast<unsigned long long>(r.sim_ops));
    }
    if (!o.trace) {
        // The workload-specific modelled headlines, by name, so one
        // command shows every end-to-end figure; only stream7 has a
        // published reference, the others are unvalidated.
        for (const char *k : {"riommu.p99_us", "strict.p99_us",
                              "riommu.blackout_us", "strict.blackout_us",
                              "model_err_pct"}) {
            const auto it = rep0.modelled.find(k);
            const char *unit = std::strcmp(k, "model_err_pct") ? "us" : "%";
            if (it == rep0.modelled.end())
                std::printf("modelled %s = n/a (not produced by %s)\n", k,
                            w->name);
            else
                std::printf("modelled %s = %s %s (n=%zu)\n", k,
                            num(it->second).c_str(), unit, samples.size());
        }
        if (!rep0.modelled.count("model_err_pct"))
            std::printf("modelled model_err_pct: unvalidated (no published "
                        "reference for %s)\n",
                        w->name);
        for (const auto &[k, v] : rep0.modelled)
            if (k.rfind("cycles_per_op.", 0) == 0)
                std::printf("modelled %s = %s cycles (n=%zu)\n", k.c_str(),
                            num(v).c_str(), samples.size());
    }
    for (const MetricDef &d : defs)
        std::printf("metric %s = %s %s (n=%zu)\n", d.name,
                    num(values[d.name]).c_str(), d.unit, counts[d.name]);
    std::printf("ops_attempted = %llu\nops_failed = %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const std::string &f : failures)
        std::printf("FAILED: %s\n", f.c_str());

    if (o.trace && !o.trace_out.empty() && !tr.writeJson(o.trace_out, w->name))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.trace_out.c_str());

    std::string metrics;
    for (const MetricDef &d : defs)
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + d.name +
                   "\": {\"value\": " + num(values[d.name]) +
                   ", \"unit\": \"" + d.unit + "\"}";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parse(argc, argv));
}
