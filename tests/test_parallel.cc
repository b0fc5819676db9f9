/**
 * @file
 * Parallel tick engine tests: the ThreadPool primitive, the parallel
 * engine under the cycle-accurate mesh (whose arbitration sees the
 * merge phase's injection order), run statistics and reset.  The
 * thread-count contract on the functional transport is a column of
 * the contract matrix (test_contracts.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "bench/workload.hh"
#include "chip/chip.hh"
#include "runtime/parallel.hh"

namespace nscs {
namespace {

TEST(ThreadPool, LaneCount)
{
    EXPECT_EQ(ThreadPool(0).lanes(), 1u);
    EXPECT_EQ(ThreadPool(1).lanes(), 1u);
    EXPECT_EQ(ThreadPool(4).lanes(), 4u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const uint32_t n = 1000;
    std::vector<std::atomic<uint32_t>> hits(n);
    pool.parallelFor(n, [&](uint32_t i) { ++hits[i]; });
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossManyJobs)
{
    ThreadPool pool(8);
    std::atomic<uint64_t> sum{0};
    for (int round = 0; round < 200; ++round)
        pool.parallelFor(64, [&](uint32_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 200ull * (64 * 63 / 2));
}

TEST(ThreadPool, VaryingCountsBackToBack)
{
    // Regression: a straggler from a small job must not claim a
    // stale cursor index against the next (larger) job's count —
    // alternate tiny and large index spaces with far more lanes
    // than tiny-job work to keep stragglers common.
    ThreadPool pool(8);
    std::vector<std::atomic<uint32_t>> hits(64);
    for (int round = 0; round < 500; ++round) {
        uint32_t count = (round % 2 == 0) ? 2 : 64;
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(count, [&](uint32_t i) { ++hits[i]; });
        for (uint32_t i = 0; i < count; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "round " << round << " index " << i;
    }
}

TEST(ThreadPool, EmptyAndSingleJobs)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [&](uint32_t) { FAIL(); });
    uint32_t ran = 0;
    pool.parallelFor(1, [&](uint32_t i) { ran += i + 1; });
    EXPECT_EQ(ran, 1u);
}

/** Everything a run produces that must be engine-invariant. */
struct RunSnapshot
{
    std::vector<OutputSpike> spikes;
    ChipCounters chip;
    EnergyEvents events;
    RunPerf perf;
};

/** The tapped 2x2 cortical chip run for @p ticks ticks. */
RunSnapshot
runTapped(uint64_t seed, EngineKind ek, NocModel nm, uint32_t threads,
          uint64_t ticks = 40)
{
    bench::CorticalWorkload w = bench::tappedWorkload(2, 2, seed);
    auto sim = bench::makeCorticalSim(w, ek, nm, threads);
    RunSnapshot snap;
    snap.perf = sim->run(ticks);
    snap.spikes = sim->recorder().spikes();
    snap.chip = sim->chip().counters();
    snap.events = sim->chip().energyEvents();
    return snap;
}

void
expectIdentical(const RunSnapshot &a, const RunSnapshot &b)
{
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.chip.ticks, b.chip.ticks);
    EXPECT_EQ(a.chip.coreActivations, b.chip.coreActivations);
    EXPECT_EQ(a.chip.spikesRouted, b.chip.spikesRouted);
    EXPECT_EQ(a.chip.spikesOut, b.chip.spikesOut);
    EXPECT_EQ(a.chip.spikesDropped, b.chip.spikesDropped);
    EXPECT_EQ(a.chip.hops, b.chip.hops);
    EXPECT_EQ(a.chip.lateDeliveries, b.chip.lateDeliveries);
    EXPECT_EQ(a.chip.meshCycles, b.chip.meshCycles);
    EXPECT_EQ(a.chip.injectRetries, b.chip.injectRetries);
    EXPECT_EQ(a.events.sops, b.events.sops);
    EXPECT_EQ(a.events.spikes, b.events.spikes);
    EXPECT_EQ(a.events.hops, b.events.hops);
}

TEST(ParallelTick, BitIdenticalCycleMesh)
{
    // The cycle-accurate mesh is order-sensitive (injection order
    // feeds arbitration), so this also checks that the merge phase
    // reproduces the serial injection sequence exactly.
    RunSnapshot serial = runTapped(7, EngineKind::Event,
                                   NocModel::Cycle, 0);
    for (uint32_t threads : {2u, 8u}) {
        RunSnapshot par = runTapped(7, EngineKind::Event,
                                    NocModel::Cycle, threads);
        expectIdentical(serial, par);
    }
}

TEST(ParallelTick, RunPerfStaysSane)
{
    RunSnapshot par = runTapped(3, EngineKind::Clock,
                                NocModel::Functional, 4, 100);
    EXPECT_EQ(par.perf.ticks, 100u);
    EXPECT_GT(par.perf.seconds, 0.0);
    EXPECT_GT(par.perf.ticksPerSecond(), 0.0);
    EXPECT_EQ(par.perf.spikesOut, par.spikes.size());
    EXPECT_GT(par.perf.realTimeFactor(), 0.0);
}

TEST(ParallelTick, ResetKeepsParallelEngine)
{
    bench::CorticalWorkload w = bench::tappedWorkload(2, 2, 13);
    auto sim = bench::makeCorticalSim(w, EngineKind::Event,
                                      NocModel::Functional, 4);
    sim->run(25);
    std::vector<OutputSpike> first = sim->recorder().spikes();
    ASSERT_FALSE(first.empty());
    sim->reset();
    // Sources keep their own state, so re-add a fresh simulator run
    // by comparing against a brand-new serial simulator instead.
    auto fresh = bench::makeCorticalSim(w, EngineKind::Event,
                                        NocModel::Functional, 0);
    fresh->run(25);
    // Post-reset the chip itself must behave like a freshly built
    // one (counters cleared, parallel path still selected).
    EXPECT_EQ(sim->chip().counters().ticks, 0u);
    EXPECT_EQ(sim->chip().now(), 0u);
    EXPECT_EQ(fresh->recorder().spikes(), first);
}

} // namespace
} // namespace nscs
