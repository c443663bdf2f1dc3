/**
 * @file
 * Tests for the deterministic virtual-time spinlock: queued-acquire
 * semantics between two cores, zero-cost uncontended and single-core
 * paths, bit-identical contention across reruns of the same two-core
 * workload, and the headline property that the rIOMMU modes take no
 * locks at all (zero lock-wait cycles on any core count).
 */
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "cycles/cycle_account.h"
#include "des/core.h"
#include "des/parallel.h"
#include "des/simulator.h"
#include "des/spinlock.h"
#include "nic/profile.h"
#include "workloads/netperf_rr.h"
#include "workloads/stream.h"

namespace rio::des {
namespace {

using cycles::Cat;

class SpinlockTest : public ::testing::Test
{
  protected:
    cycles::CostModel cost_ = cycles::defaultCostModel();
    Simulator sim_;
    Core a_{sim_, cost_};
    Core b_{sim_, cost_};
    SimSpinlock lock_{cost_, "test"};
};

TEST_F(SpinlockTest, UncontendedAcquireIsFree)
{
    Cycles waited = ~Cycles{0};
    a_.post([&] {
        waited = lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, 500);
        lock_.release(&a_);
    });
    sim_.run();
    EXPECT_EQ(waited, 0u);
    EXPECT_EQ(a_.acct().get(Cat::kLockWait), 0u);
    EXPECT_EQ(lock_.stats().acquisitions, 1u);
    EXPECT_EQ(lock_.stats().contended, 0u);
}

TEST_F(SpinlockTest, SecondCoreSpinsForTheOverlap)
{
    // Both items start at sim time 0; A runs first (FIFO) and holds
    // the lock for 1000 cycles of virtual time. B's item also starts
    // at t=0, so its acquire overlaps A's critical section and must
    // spin for the full 1000 cycles.
    constexpr Cycles kHold = 1000;
    a_.post([&] {
        lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, kHold);
        lock_.release(&a_);
    });
    Cycles waited = 0;
    b_.post([&] {
        waited = lock_.acquire(&b_, &b_.acct());
        lock_.release(&b_);
    });
    sim_.run();
    // The ns<->cycles round trip (integer ns, ceil back to cycles)
    // may shave or add a few cycles.
    EXPECT_GE(waited, kHold - 4);
    EXPECT_LE(waited, kHold + 1);
    EXPECT_EQ(b_.acct().get(Cat::kLockWait), waited);
    EXPECT_EQ(a_.acct().get(Cat::kLockWait), 0u);
    EXPECT_EQ(lock_.stats().contended, 1u);
    EXPECT_EQ(lock_.stats().wait_cycles, waited);
}

TEST_F(SpinlockTest, WaitAdvancesVirtualNowToGrantTime)
{
    constexpr Cycles kHold = 3100; // 1 us at 3.1 GHz
    Nanos release_at = 0, grant_at = 0;
    a_.post([&] {
        lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, kHold);
        release_at = a_.virtualNow();
        lock_.release(&a_);
    });
    b_.post([&] {
        lock_.acquire(&b_, &b_.acct());
        grant_at = b_.virtualNow();
        lock_.release(&b_);
    });
    sim_.run();
    EXPECT_GE(grant_at, release_at);
    EXPECT_LE(grant_at - release_at, 1u); // rounding slack
}

TEST_F(SpinlockTest, DisjointCriticalSectionsNeverSpin)
{
    a_.post([&] {
        lock_.acquire(&a_, &a_.acct());
        a_.acct().charge(Cat::kProcessing, 100);
        lock_.release(&a_);
    });
    // B's item starts only after A's critical section is long over.
    sim_.scheduleAt(1000000, [&] {
        b_.post([&] {
            Cycles w = lock_.acquire(&b_, &b_.acct());
            EXPECT_EQ(w, 0u);
            lock_.release(&b_);
        });
    });
    sim_.run();
    EXPECT_EQ(lock_.stats().contended, 0u);
    EXPECT_EQ(b_.acct().get(Cat::kLockWait), 0u);
}

TEST_F(SpinlockTest, NullCoreAcquiresInstantly)
{
    EXPECT_EQ(lock_.acquire(nullptr, nullptr), 0u);
    lock_.release(nullptr);
    EXPECT_EQ(lock_.stats().acquisitions, 1u);
    EXPECT_EQ(lock_.stats().contended, 0u);
}

TEST_F(SpinlockTest, NullGuardIsANoOp)
{
    SpinGuard guard(nullptr, &a_, &a_.acct());
    SUCCEED();
}

// --- Engine lanes: contention replay across thread counts ---------

/** One two-core contention scene on one lane's simulator. */
struct LockScenario
{
    struct Outcome
    {
        Cycles waited = 0;
        u64 acquisitions = 0, contended = 0;
        Cycles wait_cycles = 0;

        bool
        operator==(const Outcome &o) const
        {
            return waited == o.waited &&
                   acquisitions == o.acquisitions &&
                   contended == o.contended &&
                   wait_cycles == o.wait_cycles;
        }
    };

    cycles::CostModel cost = cycles::defaultCostModel();
    Core a, b;
    SimSpinlock lock;
    Outcome out;

    LockScenario(Simulator &sim, Cycles hold)
        : a(sim, cost), b(sim, cost), lock(cost, "lane")
    {
        a.post([this, hold] {
            lock.acquire(&a, &a.acct());
            a.acct().charge(Cat::kProcessing, hold);
            lock.release(&a);
        });
        b.post([this] {
            out.waited = lock.acquire(&b, &b.acct());
            lock.release(&b);
        });
    }

    Outcome
    finish()
    {
        out.acquisitions = lock.stats().acquisitions;
        out.contended = lock.stats().contended;
        out.wait_cycles = lock.stats().wait_cycles;
        return out;
    }
};

TEST(SpinlockParallelTest, LaneContentionIsBitIdenticalAcrossThreads)
{
    // Four lanes with different hold times: the virtual-time lock's
    // spin accounting is part of the simulation, so running the lanes
    // on worker threads must not move a single cycle.
    constexpr std::array<Cycles, 4> kHolds = {500, 1000, 3100, 50};
    const auto run = [&](unsigned threads) {
        ParallelEngine eng(threads);
        std::vector<std::unique_ptr<LockScenario>> scenes;
        for (const Cycles hold : kHolds)
            scenes.push_back(
                std::make_unique<LockScenario>(eng.addLane().sim(), hold));
        eng.run();
        std::vector<LockScenario::Outcome> outs;
        for (auto &s : scenes)
            outs.push_back(s->finish());
        return outs;
    };
    const auto seq = run(1);
    const auto par = run(2);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i] == par[i]) << "lane " << i;
        // And the contention is real on every lane, not trivially 0.
        EXPECT_EQ(seq[i].acquisitions, 2u);
        EXPECT_EQ(seq[i].contended, 1u);
        EXPECT_GT(seq[i].waited, 0u);
    }
}

// --- Workload-level determinism -----------------------------------

workloads::StreamParams
quickParams()
{
    workloads::StreamParams p =
        workloads::streamParamsFor(nic::mlxProfile());
    p.measure_packets = 2000;
    p.warmup_packets = 500;
    return p;
}

TEST(SpinlockDeterminismTest, TwoContendingCoresAreBitIdentical)
{
    const auto run = [] {
        return workloads::runStreamScaling(dma::ProtectionMode::kStrict,
                                           nic::mlxProfile(), 2,
                                           quickParams());
    };
    const workloads::ScalingResult r1 = run();
    const workloads::ScalingResult r2 = run();

    // The whole point of the virtual-time lock: contention is part of
    // the deterministic simulation, so reruns agree bit for bit.
    EXPECT_GT(r1.lock_wait_per_packet, 0.0);
    EXPECT_EQ(r1.tx_packets, r2.tx_packets);
    EXPECT_EQ(r1.cycles_per_packet, r2.cycles_per_packet);
    EXPECT_EQ(r1.lock_wait_per_packet, r2.lock_wait_per_packet);
    EXPECT_EQ(r1.iova_lock.acquisitions, r2.iova_lock.acquisitions);
    EXPECT_EQ(r1.iova_lock.contended, r2.iova_lock.contended);
    EXPECT_EQ(r1.iova_lock.wait_cycles, r2.iova_lock.wait_cycles);
    EXPECT_EQ(r1.inval_lock.wait_cycles, r2.inval_lock.wait_cycles);
    ASSERT_EQ(r1.per_flow.size(), r2.per_flow.size());
    for (size_t i = 0; i < r1.per_flow.size(); ++i) {
        EXPECT_EQ(r1.per_flow[i].acct.get(Cat::kLockWait),
                  r2.per_flow[i].acct.get(Cat::kLockWait));
        EXPECT_EQ(r1.per_flow[i].tx_packets, r2.per_flow[i].tx_packets);
    }
}

TEST(SpinlockDeterminismTest, ContentionGrowsWithCores)
{
    const workloads::StreamParams p = quickParams();
    const auto r2 = workloads::runStreamScaling(
        dma::ProtectionMode::kStrict, nic::mlxProfile(), 2, p);
    const auto r4 = workloads::runStreamScaling(
        dma::ProtectionMode::kStrict, nic::mlxProfile(), 4, p);
    EXPECT_GT(r2.lock_wait_per_packet, 0.0);
    EXPECT_GT(r4.lock_wait_per_packet, r2.lock_wait_per_packet);
    EXPECT_GT(r4.cycles_per_packet, r2.cycles_per_packet);
}

TEST(SpinlockDeterminismTest, RiommuTakesNoLocks)
{
    const workloads::StreamParams p = quickParams();
    for (dma::ProtectionMode mode :
         {dma::ProtectionMode::kRiommu, dma::ProtectionMode::kRiommuNc}) {
        const auto r = workloads::runStreamScaling(
            mode, nic::mlxProfile(), 2, p);
        EXPECT_EQ(r.lock_wait_per_packet, 0.0)
            << dma::modeName(mode);
        EXPECT_EQ(r.iova_lock.acquisitions, 0u) << dma::modeName(mode);
        EXPECT_EQ(r.inval_lock.acquisitions, 0u) << dma::modeName(mode);
        for (const auto &flow : r.per_flow)
            EXPECT_EQ(flow.acct.get(Cat::kLockWait), 0u)
                << dma::modeName(mode);
    }
}

TEST(SpinlockDeterminismTest, RrScalingContendsAndIsDeterministic)
{
    workloads::RrParams p = workloads::rrParamsFor(nic::mlxProfile());
    p.measure_transactions = 400;
    p.warmup_transactions = 50;
    const auto run = [&] {
        return workloads::runRrScaling(dma::ProtectionMode::kStrict,
                                       nic::mlxProfile(), 2, p);
    };
    const workloads::ScalingResult r1 = run();
    const workloads::ScalingResult r2 = run();
    EXPECT_EQ(r1.per_flow.size(), 2u);
    EXPECT_GT(r1.iova_lock.acquisitions, 0u);
    EXPECT_EQ(r1.cycles_per_packet, r2.cycles_per_packet);
    EXPECT_EQ(r1.lock_wait_per_packet, r2.lock_wait_per_packet);
    EXPECT_EQ(r1.iova_lock.wait_cycles, r2.iova_lock.wait_cycles);

    const auto rio = workloads::runRrScaling(
        dma::ProtectionMode::kRiommu, nic::mlxProfile(), 2, p);
    EXPECT_EQ(rio.lock_wait_per_packet, 0.0);
    EXPECT_EQ(rio.iova_lock.acquisitions, 0u);

    // Fault injection arms every flow's own retransmit timer. Under
    // the default retry-remap policy each fault is recovered in place;
    // under drop-backoff the faulted request or echo is lost and only
    // that flow's timer restarts its ping-pong. Either way both flows
    // reach their target (collectAll() asserts it) and reruns agree
    // bit for bit.
    for (dma::FaultPolicy policy :
         {dma::FaultPolicy::kRetryRemap, dma::FaultPolicy::kDropBackoff}) {
        workloads::RrParams lossy = p;
        lossy.fault_rate = 0.01;
        lossy.fault_policy = policy;
        const auto f1 = workloads::runRrScaling(
            dma::ProtectionMode::kStrict, nic::mlxProfile(), 2, lossy);
        const auto f2 = workloads::runRrScaling(
            dma::ProtectionMode::kStrict, nic::mlxProfile(), 2, lossy);
        const char *name = dma::faultPolicyName(policy);
        ASSERT_EQ(f1.per_flow.size(), 2u) << name;
        EXPECT_EQ(f1.tx_packets, 2 * lossy.measure_transactions) << name;
        EXPECT_GT(f1.fault.injected, 0u) << name;
        EXPECT_EQ(f1.fault.injected, f2.fault.injected) << name;
        EXPECT_EQ(f1.fault.dropped, f2.fault.dropped) << name;
        EXPECT_EQ(f1.cycles_per_packet, f2.cycles_per_packet) << name;
        EXPECT_EQ(f1.iova_lock.acquisitions, f2.iova_lock.acquisitions)
            << name;
        for (size_t i = 0; i < f1.per_flow.size(); ++i) {
            EXPECT_EQ(f1.per_flow[i].acct.total(),
                      f2.per_flow[i].acct.total())
                << name;
            EXPECT_EQ(f1.per_flow[i].duration_s,
                      f2.per_flow[i].duration_s)
                << name;
        }
        if (policy == dma::FaultPolicy::kRetryRemap) {
            EXPECT_EQ(f1.fault.injected, 45u);
            EXPECT_EQ(f1.fault.dropped, 0u);
        } else {
            EXPECT_GT(f1.fault.dropped, 0u);
        }
    }
}

TEST(SpinlockDeterminismTest, SingleCoreNeverWaits)
{
    // One core can never overlap itself: the N-core machinery with
    // ncores = 1 must charge exactly zero lock-wait cycles, which is
    // what keeps the seed's single-core results bit-for-bit intact.
    const auto r = workloads::runStreamScaling(
        dma::ProtectionMode::kStrict, nic::mlxProfile(), 1,
        quickParams());
    EXPECT_GT(r.iova_lock.acquisitions, 0u);
    EXPECT_EQ(r.iova_lock.contended, 0u);
    EXPECT_EQ(r.inval_lock.contended, 0u);
    EXPECT_EQ(r.lock_wait_per_packet, 0.0);
}

} // namespace
} // namespace rio::des
