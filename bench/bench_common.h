/**
 * @file
 * Shared helpers for the reproduction bench binaries: mode sweeps,
 * formatting, and the paper's reference numbers for side-by-side
 * printing.
 */
#ifndef RIO_BENCH_BENCH_COMMON_H
#define RIO_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/logging.h"
#include "base/strings.h"
#include "base/table.h"
#include "dma/protection_mode.h"
#include "nic/profile.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "sys/cluster.h"
#include "sys/wire.h"
#include "workloads/fleet.h"
#include "workloads/netperf_rr.h"
#include "workloads/request_load.h"
#include "workloads/result.h"
#include "workloads/stream.h"

namespace rio::bench {

/** Scale factor for run lengths: RIO_BENCH_QUICK=1 shrinks runs for
 * smoke testing; default is full length. */
inline double
runScale()
{
    const char *quick = std::getenv("RIO_BENCH_QUICK");
    return (quick && quick[0] == '1') ? 0.15 : 1.0;
}

inline u64
scaled(u64 n)
{
    const u64 s = static_cast<u64>(static_cast<double>(n) * runScale());
    return s < 100 ? 100 : s;
}

/** The seven evaluated modes in the paper's display order. */
inline const std::vector<dma::ProtectionMode> &
evaluatedModes()
{
    static const std::vector<dma::ProtectionMode> modes(
        dma::kEvaluatedModes.begin(), dma::kEvaluatedModes.end());
    return modes;
}

/** The cluster benches' fleet: @p connections QPs per machine, a full
 * send queue of credits, seed 3; 3,000 measured ops per machine, 500
 * when @p quick. */
inline workloads::FleetParams
fleetParamsFor(u32 connections, bool quick)
{
    workloads::FleetParams p;
    p.connections = connections;
    p.credits = 16; // = sq_depth: fill the CQ batches
    p.warmup_ops = quick ? 100 : 300;
    p.measure_ops = quick ? 500 : 3000;
    p.seed = 3;
    return p;
}

/** Run one fleet point on @p cfg, its QP slots sized for @p p, and
 * abort unless the run keeps the fleet invariant suite
 * (workloads::fleetViolations). */
inline workloads::FleetReport
runFleetPoint(sys::ClusterConfig cfg, const workloads::FleetParams &p)
{
    cfg.max_qps = workloads::fleetMaxQps(p, cfg.machines);
    sys::Cluster cluster(cfg);
    const workloads::FleetReport rep = workloads::runFleet(cluster, p);
    const std::string broken = workloads::fleetViolations(cfg, p, rep);
    RIO_ASSERT(broken.empty(), "fleet invariants broke at ",
               dma::modeName(cfg.mode), ":\n", broken);
    return rep;
}

/** The wire-storm point of bench_wire_storm and bench_tail_latency:
 * the 64-QP fleet on sys::stormWire(@p loss); @p churn rebinds a QP
 * every 25 ops, half of them by app death (stale rkeys for the
 * stragglers); @p incast adds 12-op bursts into a 16-deep ingress
 * port that tail-drops. The reliability layer is on wherever a hazard
 * needs it. */
inline workloads::FleetReport
runStormPoint(dma::ProtectionMode mode, double loss, bool incast,
              bool churn, unsigned machines, bool quick)
{
    workloads::FleetParams p = fleetParamsFor(64, quick);
    sys::ClusterConfig cfg;
    cfg.machines = machines;
    cfg.mode = mode;
    cfg.wire = sys::stormWire(loss);
    if (churn) {
        p.churn_period_ops = 25;
        p.churn_abort_fraction = 0.5;
    }
    if (incast) {
        p.incast_period_ops = 50;
        p.incast_burst = 12;
        cfg.wire.ingress_cap = 16;
    }
    cfg.reliability.enabled = churn || cfg.wire.armed();
    return runFleetPoint(cfg, p);
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Host wall-clock anchor for JsonWriter's host_ms field; first call
 * wins, and parseBenchArgs() makes that call at bench startup. */
inline std::chrono::steady_clock::time_point
benchStartTime()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

/** Arguments every bench binary understands. */
struct BenchArgs
{
    const char *json_path = nullptr;     //!< --json <path>
    const char *timeline_path = nullptr; //!< --timeline <path>
    /**
     * --threads N: worker threads for the uncoupled engine sweeps
     * (workloads/sweep.h), capped at one per lane. Coupled cluster
     * lanes always run inline on one thread, and benches that run
     * sequentially record the flag in their JSON and ignore it.
     * Simulation results are byte-identical for any value (the
     * golden_selfperf and golden_virt_t4 rows of scripts/check.py
     * enforce this).
     */
    unsigned threads = 1;
    /** --slo: turn on exact per-op tail recording (obs::SloReport). */
    bool slo = false;
    /** --timeline-cap N: per-track event-ring capacity override. */
    size_t timeline_cap = 0;
};

/** Print why @p flag's value was rejected as a usage line; exit 2. */
[[noreturn]] inline void
flagUsage(char **argv, const char *flag, const std::string &wants)
{
    std::fprintf(stderr, "usage: %s: %s takes %s\n", argv[0], flag,
                 wants.c_str());
    std::exit(2);
}

/** The text after the flag at argv[@p i] (a path, a name), advancing
 * @p i; a missing one, or another flag in its place, is a usage error. */
inline const char *
flagText(int argc, char **argv, int &i)
{
    if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--"))
        flagUsage(argv, argv[i], "a value");
    return argv[++i];
}

/**
 * The numbers after the flag at argv[@p i], advancing @p i: one
 * number, or with @p list a comma-separated list of them, each a whole
 * match for @p T within [@p lo, @p hi]. Anything else — missing, empty
 * item, non-numeric, trailing garbage, out of range — prints a usage
 * line and exits 2.
 */
template <typename T>
std::vector<T>
flagNumbers(int argc, char **argv, int &i, T lo, T hi, bool list)
{
    const char *flag = argv[i];
    std::vector<T> out;
    if (i + 1 < argc) {
        std::string_view rest(argv[++i]);
        for (;;) {
            const size_t comma = list ? rest.find(',') : rest.npos;
            const std::string_view item = rest.substr(0, comma);
            const char *end = item.data() + item.size();
            T v{};
            const auto [ptr, ec] = std::from_chars(item.data(), end, v);
            if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi))
                break;
            out.push_back(v);
            if (comma == rest.npos)
                return out;
            rest.remove_prefix(comma + 1);
        }
    }
    const char *what = std::is_integral_v<T>
                           ? (list ? "comma-separated integers" : "an integer")
                           : (list ? "comma-separated numbers" : "a number");
    std::string wants = strprintf("%s >= %g", what, double(lo));
    if (hi != std::numeric_limits<T>::max())
        wants += strprintf(" and <= %g", double(hi));
    flagUsage(argv, flag, wants);
}

/** One number after the flag at argv[@p i]; see flagNumbers(). */
template <typename T>
T
flagValue(int argc, char **argv, int &i, T lo,
          T hi = std::numeric_limits<T>::max())
{
    return flagNumbers<T>(argc, argv, i, lo, hi, false).front();
}

/** A comma-separated list after the flag at argv[@p i]; see
 * flagNumbers(). */
template <typename T>
std::vector<T>
flagList(int argc, char **argv, int &i, T lo,
         T hi = std::numeric_limits<T>::max())
{
    return flagNumbers<T>(argc, argv, i, lo, hi, true);
}

/** One bench-specific flag: its name, and the handler that reads it
 * at argv[i] (a value with the flag helpers above, advancing i). */
struct BenchFlag
{
    const char *name;
    std::function<void(int &i)> parse;
};

/**
 * Parse a bench's arguments: the uniform ones of BenchArgs plus the
 * bench's own @p flags, in argv order. Any other argument prints a
 * usage line naming it and exits 2, so a misspelt flag never runs the
 * default sweep. Passing --timeline turns the event timeline's
 * recording gate on for the whole run; pair with finishBench() to
 * write the trace at exit.
 * --slo flips the obs::sloRecording() gate for the whole run.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv,
               std::initializer_list<BenchFlag> flags = {})
{
    benchStartTime(); // anchor host_ms at startup
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--json") {
            args.json_path = flagText(argc, argv, i);
        } else if (arg == "--timeline") {
            args.timeline_path = flagText(argc, argv, i);
        } else if (arg == "--threads") {
            args.threads = flagValue(argc, argv, i, 1u);
        } else if (arg == "--timeline-cap") {
            args.timeline_cap = flagValue<size_t>(argc, argv, i, 1);
        } else if (arg == "--slo") {
            args.slo = true;
        } else {
            const auto own =
                std::find_if(flags.begin(), flags.end(),
                             [&](const BenchFlag &f) { return arg == f.name; });
            if (own == flags.end()) {
                std::string known =
                    "--json, --timeline, --threads, --timeline-cap, --slo";
                for (const BenchFlag &f : flags)
                    known += strprintf(", %s", f.name);
                std::fprintf(stderr, "usage: %s: unknown argument %s "
                                     "(flags: %s)\n",
                             argv[0], argv[i], known.c_str());
                std::exit(2);
            }
            own->parse(i);
        }
    }
    if (args.timeline_cap)
        obs::timeline().setCapacity(args.timeline_cap);
    if (args.timeline_path)
        obs::timeline().setRecording(true);
    if (args.slo)
        obs::setSloRecording(true);
    return args;
}

/** Export the Chrome trace if --timeline was given. Call at exit. */
inline void
finishBench(const BenchArgs &args)
{
    if (args.timeline_path)
        obs::timeline().writeChromeTrace(args.timeline_path);
}

/**
 * Mirrors a bench's table into a machine-readable file (conventionally
 * BENCH_<name>.json) for plotting and CI diffing:
 *
 *   {"bench": "...", "threads": 1, "host_ms": 42,
 *    "rows": [{"mode": "strict", "total": 17650.0}, ...]}
 *
 * Rows are flat objects of string and number fields, added in call
 * order. Writing is a no-op when the path is null (no --json given).
 *
 * The meta header records how the bench ran: `threads` is the
 * --threads value, `host_ms` the host wall-clock from bench startup
 * to writeTo(). host_ms is the one legitimately nondeterministic
 * field in an otherwise bit-reproducible file, so the golden rows of
 * scripts/check.py (and any other byte-for-byte diffing) set
 * RIO_JSON_STABLE=1, which pins it to 0.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string bench, unsigned threads = 1)
        : bench_(std::move(bench)), threads_(threads)
    {
    }

    void beginRow() { rows_.emplace_back(); }
    void add(const std::string &key, const std::string &value)
    {
        sink().push_back(
            strprintf("\"%s\": \"%s\"", key.c_str(), value.c_str()));
    }
    void add(const std::string &key, const char *value)
    {
        add(key, std::string(value));
    }
    void add(const std::string &key, double value)
    {
        sink().push_back(strprintf("\"%s\": %.6g", key.c_str(), value));
    }
    void add(const std::string &key, u64 value)
    {
        sink().push_back(strprintf("\"%s\": %llu", key.c_str(),
                                   (unsigned long long)value));
    }
    void add(const std::string &key, unsigned value)
    {
        add(key, static_cast<u64>(value));
    }

    /** Open a nested object inside the current row; subsequent add()
     * calls land in it until the matching endObject(). Nests. */
    void beginObject(const std::string &key)
    {
        open_.push_back({key, {}});
    }
    void
    endObject()
    {
        OpenObject obj = std::move(open_.back());
        open_.pop_back();
        std::string joined;
        for (size_t i = 0; i < obj.fields.size(); ++i) {
            if (i)
                joined += ", ";
            joined += obj.fields[i];
        }
        sink().push_back(strprintf("\"%s\": {%s}", obj.key.c_str(),
                                   joined.c_str()));
    }

    /** Mirror a formatted Table: one JSON row per table row (separator
     * rows skipped), keys from the header, cells that parse fully as
     * numbers emitted as numbers. A non-empty @p tag_key prepends a
     * constant field to every row — use it to tell multiple tables in
     * one bench apart. */
    void
    addTable(const Table &t, const std::string &tag_key = {},
             const std::string &tag_value = {})
    {
        for (const auto &row : t.rows()) {
            if (row.empty())
                continue; // separator
            beginRow();
            if (!tag_key.empty())
                add(tag_key, tag_value);
            const size_t n = std::min(row.size(), t.header().size());
            for (size_t j = 0; j < n; ++j) {
                const std::string &cell = row[j];
                char *end = nullptr;
                std::strtod(cell.c_str(), &end);
                if (!cell.empty() && end && *end == '\0')
                    sink().push_back(strprintf(
                        "\"%s\": %s", t.header()[j].c_str(),
                        cell.c_str()));
                else
                    add(t.header()[j], cell);
            }
        }
    }

    /** Write to @p path; returns false (with a message) on I/O error.
     * Null @p path: nothing to do, returns true. */
    bool
    writeTo(const char *path) const
    {
        if (!path)
            return true;
        std::FILE *f = std::fopen(path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path);
            return false;
        }
        // RIO_JSON_STABLE pins the wall-clock field for byte-for-byte
        // golden diffs; everything else in the file is deterministic.
        const char *stable = std::getenv("RIO_JSON_STABLE");
        unsigned long long host_ms = 0;
        if (!(stable && stable[0] == '1'))
            host_ms = static_cast<unsigned long long>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - benchStartTime())
                    .count());
        std::fprintf(f,
                     "{\"bench\": \"%s\", \"threads\": %u, "
                     "\"host_ms\": %llu, \"rows\": [",
                     bench_.c_str(), threads_, host_ms);
        for (size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "%s{", i ? ", " : "");
            for (size_t j = 0; j < rows_[i].size(); ++j)
                std::fprintf(f, "%s%s", j ? ", " : "",
                             rows_[i][j].c_str());
            std::fprintf(f, "}");
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path);
        return true;
    }

  private:
    struct OpenObject
    {
        std::string key;
        std::vector<std::string> fields;
    };

    /** Where the next field goes: deepest open object, else the row. */
    std::vector<std::string> &
    sink()
    {
        return open_.empty() ? rows_.back() : open_.back().fields;
    }

    std::string bench_;
    unsigned threads_ = 1;
    std::vector<std::vector<std::string>> rows_;
    std::vector<OpenObject> open_;
};

} // namespace rio::bench

#endif // RIO_BENCH_BENCH_COMMON_H
