/**
 * @file
 * Live-migration bench: a migrate::Migrator moves a guest between the
 * two machines of a Cluster while dirty-rate, wire-loss, platform
 * (bare / emulated / shadow / nested) and the seven protection modes
 * sweep. Reported per point: pre-copy rounds, pages shipped and
 * re-shipped, vIOMMU state-transfer bytes, the blackout window
 * (quiesce start -> resume-done), and the migrated-away tier of the
 * late-arrival ledger — strays a peer keeps firing at the source
 * after the guest left.
 *
 * The headline claims, asserted:
 *  - Per-platform state transfer orders the baseline blackout:
 *    shadow (merged shadow table moves wholesale, only what is
 *    mapped) < nested (a stage-2 covering the whole arena ships,
 *    memory-proportional) < emulated (every live mapping is replayed
 *    as an install+invalidate exit pair on the target).
 *  - The rIOMMU blackout is re-registration-dominated: one hypercall
 *    per live rRING, so it grows with the ring count (QPs) and stays
 *    flat in guest memory size — the flat-table analogue of the
 *    paper's O(rings) argument, now for migration downtime.
 *  - Protected modes stop every post-migration stray
 *    (migrated_away_landed == 0); mode none cannot fault and lands
 *    them all.
 *  - Guest RAM is byte-identical on the target (FNV-1a arena hash),
 *    at every dirty rate and loss rate, QP errors included.
 *
 * Every run goes through workloads::runMigration; `--loss 0` is an
 * ordinary loss value for the hostile-wire rows (an unarmed wire).
 * `--pages` has a floor of 2048: below it the per-platform and
 * memory-scaling claims above stop holding for the baseline.
 */
#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "base/logging.h"
#include "virt/platform.h"
#include "workloads/migration.h"

using namespace rio;

namespace {

using workloads::MigrationParams;
using workloads::MigrationResult;

/** One audited migration: it must complete with byte-identical guest
 * RAM and quiesce leak-free. */
MigrationResult
audited(const MigrationParams &r)
{
    const MigrationResult o = workloads::runMigration(r);
    RIO_ASSERT(o.rep.completed && !o.rep.failed,
               "migration did not complete at ", dma::modeName(r.mode),
               "/", virt::platformName(r.platform), " loss=", r.loss);
    RIO_ASSERT(o.src_hash == o.dst_hash, "guest RAM diverged at ",
               dma::modeName(r.mode), "/",
               virt::platformName(r.platform), " dirty=", r.dirty,
               " loss=", r.loss);
    RIO_ASSERT(o.leaks_clean, "handle leak at ", dma::modeName(r.mode),
               "/", virt::platformName(r.platform));
    return o;
}

bool
isProtectedMode(std::string_view n)
{
    return n == "riommu-" || n == "riommu" || n == "strict" ||
           n == "strict+";
}

void
jsonRow(bench::JsonWriter &json, const char *variant,
        const MigrationParams &r, const MigrationResult &o)
{
    json.beginRow();
    json.add("variant", variant);
    json.add("mode", dma::modeName(r.mode));
    json.add("platform", virt::platformName(r.platform));
    json.add("dirty_pages_per_ms", r.dirty);
    json.add("loss", r.loss);
    json.add("pages", r.pages);
    json.add("app_qps", static_cast<u64>(r.app_qps));
    json.add("strays", static_cast<u64>(r.strays));
    json.add("rounds", static_cast<u64>(o.rep.rounds));
    json.add("pages_shipped", o.rep.pages_shipped);
    json.add("pages_reshipped", o.rep.pages_reshipped);
    json.add("page_naks", o.rep.page_naks);
    json.add("state_chunks", o.rep.state_chunks);
    json.add("state_bytes", o.rep.state_bytes);
    json.add("mappings_replayed", o.rep.mappings_replayed);
    json.add("reg_hypercalls", o.rep.reg_hypercalls);
    json.add("live_rings", o.rep.live_rings);
    json.add("stream_qp_errors", o.rep.stream_qp_errors);
    json.add("dirtier_writes", o.rep.dirtier_writes);
    json.add("blackout_ns", static_cast<u64>(o.rep.blackout_ns));
    json.add("total_ns", static_cast<u64>(o.rep.total_ns));
    json.add("stray_arrivals", o.stray_arrivals);
    json.add("stray_faulted", o.stray_faulted);
    json.add("stray_landed", o.stray_landed);
    json.add("hash_ok", static_cast<u64>(o.src_hash == o.dst_hash));
}

void
tableRow(Table &t, const MigrationParams &r, const MigrationResult &o)
{
    t.addRow(strprintf("%s/%s", dma::modeName(r.mode),
                       virt::platformName(r.platform)),
             {r.dirty, r.loss, static_cast<double>(r.pages),
              static_cast<double>(r.app_qps),
              static_cast<double>(o.rep.rounds),
              static_cast<double>(o.rep.pages_shipped),
              static_cast<double>(o.rep.pages_reshipped),
              static_cast<double>(o.rep.state_bytes) / 1024.0,
              static_cast<double>(o.rep.live_rings),
              static_cast<double>(o.rep.blackout_ns) / 1e3,
              static_cast<double>(o.rep.total_ns) / 1e6,
              static_cast<double>(o.stray_faulted),
              static_cast<double>(o.stray_landed)},
             2);
}

u64
pctNs(std::vector<u64> v, double q)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    size_t idx = static_cast<size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n))));
    return v[std::min(idx, n) - 1];
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::runScale() < 1.0;
    double loss = -1.0;
    u64 pages_override = 0;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--quick", [&](int &) { quick = true; }},
         {"--loss",
          [&](int &i) { loss = bench::flagValue(argc, argv, i, 0.0, 1.0); }},
         {"--pages", [&](int &i) {
              pages_override = bench::flagValue<u64>(argc, argv, i, 2048);
          }}});

    const u64 P = pages_override ? pages_override : (quick ? 4096 : 8192);
    const double armed_loss = loss >= 0.0 ? loss : 0.02;
    const double base_dirty = 50.0;

    bench::printHeader(strprintf(
        "Live migration: %llu-page guest, dirty x loss x platform x "
        "mode — rounds, freight, blackout, strays",
        static_cast<unsigned long long>(P)));

    Table t({"mode/platform", "dirty", "loss", "pages", "qps", "rounds",
             "shipped", "reship", "state KB", "rings", "blackout us",
             "total ms", "stray flt", "stray land"});
    bench::JsonWriter json("migration", args.threads);

    // ---- base sweep: every platform x every mode, moderate dirt ----
    struct Key
    {
        std::string mode;
        virt::Platform platform;
        MigrationResult out;
    };
    std::vector<Key> base;
    for (const virt::Platform plat : virt::kAllPlatforms) {
        for (const dma::ProtectionMode mode : bench::evaluatedModes()) {
            MigrationParams r;
            r.mode = mode;
            r.platform = plat;
            r.dirty = base_dirty;
            r.pages = P;
                const MigrationResult o = audited(r);
            tableRow(t, r, o);
            jsonRow(json, "migrate", r, o);

            const std::string_view n(dma::modeName(mode));
            RIO_ASSERT(o.stray_arrivals > 0,
                       "no stray ever reached the migrated-away "
                       "ledger at ", n, "/", virt::platformName(plat));
            if (isProtectedMode(n)) {
                RIO_ASSERT(o.stray_landed == 0, n,
                           " must stop every post-migration stray, "
                           "but ", o.stray_landed, " landed");
                RIO_ASSERT(o.stray_faulted > 0,
                           "protected mode never faulted a stray");
            }
            if (n == "none") {
                RIO_ASSERT(o.stray_faulted == 0,
                           "mode none cannot fault, but ",
                           o.stray_faulted, " strays faulted");
                RIO_ASSERT(o.stray_landed > 0,
                           "mode none should land strays");
            }
            if (dma::modeUsesRiommu(mode) &&
                (plat == virt::Platform::kEmulated ||
                 plat == virt::Platform::kNested)) {
                RIO_ASSERT(o.rep.reg_hypercalls == o.rep.live_rings &&
                               o.rep.live_rings > 0,
                           "rIOMMU state transfer must be one "
                           "hypercall per live ring");
            }
            base.push_back({std::string(n), plat, o});
        }
        t.addSeparator();
    }

    // The per-platform blackout ordering, on the representative
    // baseline mode: shadow (only what is mapped) < nested (stage-2
    // for the whole arena) < emulated (per-mapping exit replay).
    const auto find = [&base](const char *m,
                              virt::Platform p) -> const MigrationResult & {
        for (const Key &k : base)
            if (k.mode == m && k.platform == p)
                return k.out;
        RIO_PANIC("missing base point");
    };
    {
        const auto &sh = find("strict", virt::Platform::kShadow);
        const auto &ne = find("strict", virt::Platform::kNested);
        const auto &em = find("strict", virt::Platform::kEmulated);
        RIO_ASSERT(sh.rep.state_bytes < ne.rep.state_bytes,
                   "shadow must ship less state than nested: ",
                   sh.rep.state_bytes, " vs ", ne.rep.state_bytes);
        RIO_ASSERT(sh.rep.blackout_ns < ne.rep.blackout_ns,
                   "shadow blackout (", sh.rep.blackout_ns,
                   " ns) not under nested (", ne.rep.blackout_ns, ")");
        RIO_ASSERT(ne.rep.blackout_ns < em.rep.blackout_ns,
                   "nested blackout (", ne.rep.blackout_ns,
                   " ns) not under emulated (", em.rep.blackout_ns,
                   ")");
    }

    // ---- rIOMMU scaling: blackout ~ rings, flat in memory ----------
    const auto scaled_run = [&](dma::ProtectionMode mode, unsigned qps,
                                u64 pages) {
        MigrationParams r;
        r.mode = mode;
        r.platform = virt::Platform::kNested;
        r.dirty = 0.0; // clean scaling: state transfer only
        r.pages = pages;
        r.app_qps = qps;
        r.strays = false;
        const MigrationResult o = audited(r);
        tableRow(t, r, o);
        jsonRow(json, "scaling", r, o);
        return o;
    };
    const auto rq4 = scaled_run(dma::ProtectionMode::kRiommu, 4, P);
    const auto rq12 = scaled_run(dma::ProtectionMode::kRiommu, 12, P);
    const auto rp4 = scaled_run(dma::ProtectionMode::kRiommu, 4, 4 * P);
    const auto sp1 = scaled_run(dma::ProtectionMode::kStrict, 4, P);
    const auto sp4 = scaled_run(dma::ProtectionMode::kStrict, 4, 4 * P);
    t.addSeparator();
    RIO_ASSERT(rq12.rep.live_rings == rq4.rep.live_rings + 16,
               "ring count must track QP count: ", rq4.rep.live_rings,
               " -> ", rq12.rep.live_rings);
    RIO_ASSERT(rq12.rep.blackout_ns > rq4.rep.blackout_ns,
               "rIOMMU blackout must grow with live rings: ",
               rq4.rep.blackout_ns, " -> ", rq12.rep.blackout_ns);
    RIO_ASSERT(static_cast<double>(rp4.rep.blackout_ns) <=
                   1.10 * static_cast<double>(rq4.rep.blackout_ns),
               "rIOMMU blackout must stay flat in guest memory: ",
               rq4.rep.blackout_ns, " ns at ", P, " pages vs ",
               rp4.rep.blackout_ns, " ns at ", 4 * P);
    RIO_ASSERT(static_cast<double>(sp4.rep.blackout_ns) >
                   1.30 * static_cast<double>(sp1.rep.blackout_ns),
               "nested baseline blackout must be memory-proportional: ",
               sp1.rep.blackout_ns, " -> ", sp4.rep.blackout_ns);

    // ---- dirty-rate pressure: the round cap earns its keep ---------
    for (const dma::ProtectionMode mode :
         {dma::ProtectionMode::kRiommu, dma::ProtectionMode::kStrict}) {
        MigrationParams r;
        r.mode = mode;
        r.platform = virt::Platform::kNested;
        r.dirty = 800.0;
        r.pages = P;
        const MigrationResult o = audited(r);
        tableRow(t, r, o);
        jsonRow(json, "dirty", r, o);
        RIO_ASSERT(o.rep.rounds > 1 && o.rep.pages_reshipped > 0,
                   "a hot dirtier must force extra pre-copy rounds");
    }
    t.addSeparator();

    // ---- hostile wire: loss on the migration stream ----------------
    for (const dma::ProtectionMode mode :
         {dma::ProtectionMode::kRiommu, dma::ProtectionMode::kStrict}) {
        MigrationParams r;
        r.mode = mode;
        r.platform = virt::Platform::kNested;
        r.dirty = base_dirty;
        r.loss = armed_loss;
        r.pages = P;
        const MigrationResult o = audited(r);
        tableRow(t, r, o);
        jsonRow(json, "loss", r, o);
    }

    std::printf("%s\n", t.toString().c_str());

    // ---- --slo: blackout percentiles over dirtier seeds ------------
    if (args.slo) {
        bench::printHeader(
            "Blackout tail over 5 dirtier seeds (p50/p99, ns)");
        Table st({"mode/platform", "p50 us", "p99 us"});
        for (const virt::Platform plat : virt::kAllPlatforms) {
            for (const dma::ProtectionMode mode :
                 {dma::ProtectionMode::kRiommu,
                  dma::ProtectionMode::kStrict}) {
                std::vector<u64> blk;
                for (u64 seed = 1; seed <= 5; ++seed) {
                    MigrationParams r;
                    r.mode = mode;
                    r.platform = plat;
                    r.dirty = base_dirty;
                    r.pages = P;
                    r.dirty_seed = seed;
                    blk.push_back(static_cast<u64>(
                        audited(r).rep.blackout_ns));
                }
                const u64 p50 = pctNs(blk, 0.50);
                const u64 p99 = pctNs(blk, 0.99);
                st.addRow(strprintf("%s/%s", dma::modeName(mode),
                                    virt::platformName(plat)),
                          {static_cast<double>(p50) / 1e3,
                           static_cast<double>(p99) / 1e3},
                          2);
                json.beginRow();
                json.add("variant", "slo");
                json.add("mode", dma::modeName(mode));
                json.add("platform", virt::platformName(plat));
                json.add("blackout_p50_ns", p50);
                json.add("blackout_p99_ns", p99);
            }
        }
        std::printf("%s\n", st.toString().c_str());
    }

    if (!json.writeTo(args.json_path))
        return 1;
    bench::finishBench(args);
    return 0;
}
