#include "workloads/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "base/logging.h"
#include "base/rng.h"
#include "base/strings.h"
#include "dma/protection_mode.h"

namespace rio::workloads {

namespace {

/** Inverse-CDF Zipf sampler over ranks 0..n-1 (rank 0 hottest). */
class ZipfCdf
{
  public:
    ZipfCdf(u32 n, double theta)
    {
        RIO_ASSERT(n > 0, "empty Zipf support");
        cdf_.reserve(n);
        double acc = 0;
        for (u32 i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf_.push_back(acc);
        }
        for (double &c : cdf_)
            c /= acc;
    }

    u32
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<u32>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** Per-machine closed-loop driver; all state lane-local. */
struct MachineDriver
{
    sys::Cluster *cluster = nullptr;
    const FleetParams *p = nullptr;
    unsigned m = 0;
    Rng rng{1};
    std::unique_ptr<ZipfCdf> conn_zipf;
    std::unique_ptr<ZipfCdf> size_zipf;

    u32 pending_connects = 0;
    std::vector<u32> my_qps; //!< established initiator-side QPs
    std::vector<u32> p0_qps; //!< subset whose peer is machine 0

    u32 outstanding = 0;
    u64 completions = 0;
    bool measuring = false;
    bool done = false;
    bool churning = false;
    Cycles window_start_cycles = 0;
    u64 measured_ops = 0;
    Cycles measured_cycles = 0;

    rdma::RdmaNic &nic() { return cluster->nic(m); }
    des::Core &core() { return cluster->machine(m).core(0); }
    Cycles coreCycles() { return core().acct().total(); }

    void
    startConnects()
    {
        const unsigned machines = cluster->size();
        const u32 target = std::max<u32>(1, p->connections / 2);
        for (u32 k = 0; k < target; ++k) {
            const u32 peer = (m + 1 + k % (machines - 1)) % machines;
            initiateConnect(peer);
        }
    }

    void
    initiateConnect(u32 peer)
    {
        ++pending_connects;
        auto res = nic().connect(peer, [this](u32 qp, bool ok) {
            onConnected(qp, ok);
        });
        if (!res.isOk())
            onConnected(0, false);
    }

    void
    onConnected(u32 qp, bool ok)
    {
        RIO_ASSERT(pending_connects > 0, "spurious connect callback");
        --pending_connects;
        if (ok) {
            my_qps.push_back(qp);
            if (nic().peerNic(qp) == 0 && m != 0)
                p0_qps.push_back(qp);
        }
        if (churning) {
            churning = false;
            if (!done)
                tryPost();
            return;
        }
        if (pending_connects == 0) {
            if (my_qps.empty()) {
                done = true; // degenerate: nothing to drive
                return;
            }
            tryPost();
        }
    }

    void
    tryPost()
    {
        while (!done && outstanding < p->credits && !my_qps.empty()) {
            const u32 rank = conn_zipf->sample(rng);
            const u32 qp = my_qps[rank % my_qps.size()];
            const u32 bytes = p->sizes[size_zipf->sample(rng) %
                                       p->sizes.size()];
            const bool read = rng.chance(p->read_fraction);
            const bool posted = read ? nic().postRead(qp, bytes)
                                     : nic().postWrite(qp, bytes);
            if (!posted)
                return; // window full somewhere; retry on completion
            ++outstanding;
        }
    }

    /** Synchronized burst at machine 0, outside the credit loop. */
    void
    incast()
    {
        if (p0_qps.empty())
            return;
        const u32 bytes = p->sizes.back();
        for (u32 i = 0; i < p->incast_burst; ++i) {
            const u32 qp = p0_qps[i % p0_qps.size()];
            if (nic().postWrite(qp, bytes))
                ++outstanding;
        }
    }

    void
    churn()
    {
        if (churning || my_qps.size() < 2)
            return;
        const u32 pick =
            static_cast<u32>(rng.below(my_qps.size()));
        if (p->churn_abort_fraction > 0.0 &&
            rng.chance(p->churn_abort_fraction)) {
            // App death: no drain, no handshake. Zipf-picked so the
            // abort lands where the traffic is — a busy QP strands
            // its in-flight data, which then arrives late at a dead
            // slot. onQpError() takes the slot out of my_qps and
            // applies the reconnect policy.
            const u32 hot = conn_zipf->sample(rng) %
                            static_cast<u32>(my_qps.size());
            nic().abortQp(my_qps[hot]);
            return;
        }
        const u32 qp = my_qps[pick];
        const u32 peer = nic().peerNic(qp);
        my_qps.erase(my_qps.begin() + pick);
        p0_qps.erase(std::remove(p0_qps.begin(), p0_qps.end(), qp),
                     p0_qps.end());
        churning = true;
        Status s = nic().teardown(qp, [this, peer](u32) {
            if (!done)
                initiateConnect(peer);
            else
                churning = false;
        });
        if (!s)
            churning = false; // raced with a fault-injected close
    }

    /** Driver half of QP error recovery: the NIC has already flushed
     * the slot's ops as error CQEs and freed the QP; decide whether
     * to dial the peer again. Responder-side slots (not in my_qps)
     * are left to the initiating machine's policy. */
    void
    onQpError(u32 qp, u32 peer)
    {
        const auto it = std::find(my_qps.begin(), my_qps.end(), qp);
        // A churn teardown that died mid-close never fires its
        // ClosedCb; release the lever so churn can't wedge.
        churning = false;
        if (it == my_qps.end())
            return;
        my_qps.erase(it);
        p0_qps.erase(std::remove(p0_qps.begin(), p0_qps.end(), qp),
                     p0_qps.end());
        if (p->qp_error_policy == FleetParams::QpErrorPolicy::kReconnect &&
            !done)
            initiateConnect(peer);
    }

    void
    onCompletion(u32 /*qp*/, u32 /*wqe*/, bool /*ok*/)
    {
        RIO_ASSERT(outstanding > 0, "completion without a post");
        --outstanding;
        ++completions;
        if (!measuring && completions >= p->warmup_ops) {
            measuring = true;
            window_start_cycles = coreCycles();
        }
        if (measuring && !done &&
            completions >= p->warmup_ops + p->measure_ops) {
            measured_cycles = coreCycles() - window_start_cycles;
            measured_ops = p->measure_ops;
            done = true; // stop posting; in-flight ops drain
            return;
        }
        if (done)
            return;
        if (p->churn_period_ops &&
            completions % p->churn_period_ops == 0)
            churn();
        if (p->incast_period_ops && m != 0 &&
            completions % p->incast_period_ops == 0)
            incast();
        tryPost();
    }
};

} // namespace

u32
fleetMaxQps(const FleetParams &params, unsigned machines)
{
    RIO_ASSERT(machines >= 2, "fleet needs at least two machines");
    const u32 initiated = std::max<u32>(1, params.connections / 2);
    // Accepted load is balanced by the round-robin peer choice;
    // churn can transiently hold old + new slot at both ends.
    return 2 * initiated + 8;
}

FleetReport
runFleet(sys::Cluster &cluster, const FleetParams &params)
{
    RIO_ASSERT(cluster.size() >= 2, "fleet needs at least two machines");
    for (u32 s : params.sizes)
        RIO_ASSERT(s > 0 && s <= cluster.config().profile.max_req_bytes,
                   "request size outside the profile's MR");
    RIO_ASSERT(params.credits > 0 &&
                   params.credits <= cluster.config().profile.sq_depth,
               "credits above sq_depth can deadlock the closed loop");

    std::vector<std::unique_ptr<MachineDriver>> drivers;
    drivers.reserve(cluster.size());
    for (unsigned m = 0; m < cluster.size(); ++m) {
        auto d = std::make_unique<MachineDriver>();
        d->cluster = &cluster;
        d->p = &params;
        d->m = m;
        d->rng = Rng(params.seed * 0x9E3779B97F4A7C15ULL + m + 1);
        d->conn_zipf = std::make_unique<ZipfCdf>(
            std::max<u32>(1, params.connections / 2), params.zipf_theta);
        d->size_zipf = std::make_unique<ZipfCdf>(
            static_cast<u32>(params.sizes.size()),
            params.size_zipf_theta);
        drivers.push_back(std::move(d));
    }

    cluster.bringUp();
    for (auto &d : drivers) {
        MachineDriver *drv = d.get();
        drv->nic().setCompletionCallback(
            [drv](u32 qp, u32 wqe, bool ok) {
                drv->onCompletion(qp, wqe, ok);
            });
        drv->nic().setQpErrorCallback([drv](u32 qp, u32 peer) {
            drv->onQpError(qp, peer);
        });
        drv->core().post([drv] { drv->startConnects(); });
    }
    cluster.run();

    FleetReport rep;
    for (auto &d : drivers) {
        rep.measured_ops += d->measured_ops;
        rep.measured_cycles += d->measured_cycles;
        rep.total_ops += d->completions;
    }
    if (rep.measured_ops > 0)
        rep.cycles_per_op = static_cast<double>(rep.measured_cycles) /
                            static_cast<double>(rep.measured_ops);

    using RS = rdma::RdmaStats;
    rep.posts = cluster.total(&RS::posts);
    rep.posts_blocked = cluster.total(&RS::posts_blocked);
    rep.comp_errors = cluster.total(&RS::comp_errors);
    rep.remote_faults = cluster.total(&RS::remote_faults);
    rep.local_fault_drops = cluster.total(&RS::local_fault_drops);
    rep.connects = cluster.total(&RS::connects);
    rep.teardowns = cluster.total(&RS::teardowns);
    rep.eob_unmaps = cluster.total(&RS::eob_unmaps);
    rep.completions = cluster.total(&RS::completions);
    if (rep.eob_unmaps > 0)
        rep.avg_burst = static_cast<double>(rep.completions) /
                        static_cast<double>(rep.eob_unmaps);

    rep.retransmits = cluster.total(&RS::retransmits);
    rep.rto_fires = cluster.total(&RS::rto_fires);
    rep.nak_seq = cluster.total(&RS::nak_seq_recv);
    rep.qp_errors = cluster.total(&RS::qp_errors);
    rep.qp_error_recovered = cluster.total(&RS::qp_error_recovered);
    rep.late_arrivals = cluster.total(&RS::late_arrivals);
    rep.late_faulted = cluster.total(&RS::late_faulted);
    rep.late_landed = cluster.total(&RS::late_landed);

    using WS = sys::WireStats;
    rep.wire_drops = cluster.wireTotal(&WS::drops);
    rep.wire_dups = cluster.wireTotal(&WS::dups);
    rep.wire_delays = cluster.wireTotal(&WS::delays);
    rep.wire_congestion_drops = cluster.wireTotal(&WS::congestion_drops);
    rep.wire_peak_queue = cluster.wireTotal(&WS::peak_queue);

    std::vector<Nanos> lat;
    for (unsigned m = 0; m < cluster.size(); ++m) {
        const auto &l = cluster.nic(m).opLatencies();
        lat.insert(lat.end(), l.begin(), l.end());
        rep.end_ns = std::max(rep.end_ns, cluster.lane(m).sim().now());
    }
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        rep.p50_latency_ns = lat[lat.size() / 2];
        rep.p99_latency_ns = lat[lat.size() * 99 / 100];
    }

    if (obs::sloRecording()) {
        // Exact per-op records, merged in machine order (deterministic;
        // the report itself is permutation-invariant anyway).
        std::vector<obs::OpRecord> records;
        u64 slo_dropped = 0;
        for (unsigned m = 0; m < cluster.size(); ++m) {
            const obs::OpLatencyRecorder &r = cluster.nic(m).sloRecords();
            records.insert(records.end(), r.inOrder().begin(),
                           r.inOrder().end());
            slo_dropped += r.dropped();
        }
        rep.slo = obs::computeSloReport(records);
        rep.slo.dropped = slo_dropped;
        rep.slo_valid = true;
    }

    if (dma::modeUsesRiommu(cluster.config().mode)) {
        for (unsigned m = 0; m < cluster.size(); ++m) {
            riommu::Riommu &r = cluster.machine(m).ctx().riommu();
            const auto &ts = r.riotlb().stats();
            rep.riotlb.lookups += ts.lookups;
            rep.riotlb.hits += ts.hits;
            rep.riotlb.current += ts.current;
            rep.riotlb.synced += ts.synced;
            rep.riotlb.prefetch_hits += ts.prefetch_hits;
            rep.riotlb.walks += ts.walks;
            rep.riotlb.invalidations += ts.invalidations;
            const auto &cs = r.rdCacheStats();
            rep.rdcache.fetches += cs.fetches;
            rep.rdcache.hot_hits += cs.hot_hits;
            rep.rdcache.hot_misses += cs.hot_misses;
        }
    }

    cluster.quiesce();
    for (unsigned m = 0; m < cluster.size(); ++m)
        if (!cluster.checkLeaks(m).clean())
            rep.leaks_clean = false;
    return rep;
}

std::string
fleetViolations(const sys::ClusterConfig &cfg, const FleetParams &params,
                const FleetReport &rep)
{
    using ull = unsigned long long;
    std::string out;
    if (rep.completions != rep.posts)
        out += strprintf("cqe-conservation: %llu CQEs for %llu posts\n",
                         ull(rep.completions), ull(rep.posts));
    if (!cfg.reliability.enabled &&
        rep.comp_errors != rep.remote_faults + rep.local_fault_drops)
        out += strprintf("error-accounting: %llu error CQEs, %llu remote "
                         "+ %llu local faults\n",
                         ull(rep.comp_errors), ull(rep.remote_faults),
                         ull(rep.local_fault_drops));
    if (!rep.leaks_clean)
        out += "leaks: a machine leaked mappings after quiesce\n";
    if (dma::modeUsesRiommu(cfg.mode) && rep.late_landed != 0)
        out += strprintf("late-landed: %llu late arrivals landed\n",
                         ull(rep.late_landed));
    if (cfg.mode == dma::ProtectionMode::kNone && cfg.fault_rate == 0.0 &&
        rep.late_faulted != 0)
        out += strprintf("late-faulted: %llu late arrivals faulted\n",
                         ull(rep.late_faulted));
    if ((obs::sloRecording() || rep.slo_valid) &&
        (!rep.slo_valid || rep.slo.dropped != 0 ||
         rep.slo.count != rep.completions))
        out += strprintf("slo-coverage: %s, %llu records (%llu dropped) "
                         "for %llu CQEs\n",
                         rep.slo_valid ? "valid" : "invalid",
                         ull(rep.slo.count), ull(rep.slo.dropped),
                         ull(rep.completions));
    if (!cfg.wire.armed() && cfg.fault_rate == 0.0 &&
        params.churn_abort_fraction == 0.0 &&
        (rep.comp_errors | rep.remote_faults | rep.local_fault_drops) != 0)
        out += strprintf("errors: %llu error CQEs, %llu remote + %llu "
                         "local faults on a clean run\n",
                         ull(rep.comp_errors), ull(rep.remote_faults),
                         ull(rep.local_fault_drops));
    return out;
}

} // namespace rio::workloads
