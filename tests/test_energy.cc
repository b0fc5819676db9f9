/**
 * @file
 * Unit tests for the energy/power model as a pure function: the
 * decomposition identity, linearity in event counts, calibration
 * anchors at the published operating points, and the stat dump.
 */

#include <gtest/gtest.h>

#include "chip/energy.hh"

namespace nscs {
namespace {

EnergyEvents
nominal4096()
{
    // The published nominal point: 64x64 cores, 1 M neurons at
    // 20 Hz mean rate, 128 synaptic events per spike, over 1 s.
    EnergyEvents e;
    e.ticks = 1000;
    e.cores = 4096;
    e.neurons = 1048576;
    e.spikes = e.neurons * 20 / 1000 * e.ticks;  // 20 Hz
    e.sops = e.spikes * 128;
    e.hops = e.spikes * 8;  // typical mean path
    return e;
}

TEST(EnergyModel, DecompositionIdentity)
{
    EnergyEvents e = nominal4096();
    EnergyParams p;
    EnergyBreakdown b = computeEnergy(e, p);
    EXPECT_NEAR(b.totalJ(),
                b.leakageJ + b.sopJ + b.neuronJ + b.spikeJ + b.hopJ,
                1e-15);
    EXPECT_GT(b.leakageJ, 0.0);
    EXPECT_GT(b.sopJ, 0.0);
}

TEST(EnergyModel, LinearInEventCounts)
{
    EnergyEvents e = nominal4096();
    EnergyParams p;
    EnergyBreakdown b1 = computeEnergy(e, p);

    EnergyEvents e2 = e;
    e2.sops *= 2;
    e2.spikes *= 2;
    e2.hops *= 2;
    EnergyBreakdown b2 = computeEnergy(e2, p);
    EXPECT_NEAR(b2.sopJ, 2 * b1.sopJ, 1e-12);
    EXPECT_NEAR(b2.spikeJ, 2 * b1.spikeJ, 1e-12);
    EXPECT_NEAR(b2.hopJ, 2 * b1.hopJ, 1e-12);
    // Static terms unchanged.
    EXPECT_DOUBLE_EQ(b2.leakageJ, b1.leakageJ);
    EXPECT_DOUBLE_EQ(b2.neuronJ, b1.neuronJ);
}

TEST(EnergyModel, CalibrationAnchors)
{
    // The defaults must land in the published bands at the nominal
    // point: leakage floor 20-35 mW, total power 40-90 mW,
    // effective energy 15-40 pJ/SOP.
    EnergyEvents e = nominal4096();
    EnergyParams p;
    EnergyBreakdown b = computeEnergy(e, p);
    double power = averagePowerW(b, e, p);
    EXPECT_GT(power, 0.040);
    EXPECT_LT(power, 0.090);

    EnergyEvents idle = e;
    idle.sops = idle.spikes = idle.hops = 0;
    EnergyBreakdown ib = computeEnergy(idle, p);
    double floor = averagePowerW(ib, idle, p);
    EXPECT_GT(floor, 0.020);
    EXPECT_LT(floor, 0.035);

    double pj = energyPerSopJ(b, e) * 1e12;
    EXPECT_GT(pj, 15.0);
    EXPECT_LT(pj, 40.0);
}

TEST(EnergyModel, ZeroWindowAndZeroSops)
{
    EnergyEvents e;  // everything zero
    EnergyParams p;
    EnergyBreakdown b = computeEnergy(e, p);
    EXPECT_DOUBLE_EQ(b.totalJ(), 0.0);
    EXPECT_DOUBLE_EQ(averagePowerW(b, e, p), 0.0);
    EXPECT_DOUBLE_EQ(energyPerSopJ(b, e), 0.0);
}

TEST(EnergyModel, PowerScalesWithTickDuration)
{
    // Halving the real-time tick duration doubles power for the
    // same event counts (energy fixed, window halved) apart from
    // the time-proportional static terms.
    EnergyEvents e = nominal4096();
    EnergyParams fast;
    fast.tickSeconds = 0.5e-3;
    EnergyParams slow;
    slow.tickSeconds = 1e-3;
    EnergyBreakdown bf = computeEnergy(e, fast);
    EnergyBreakdown bs = computeEnergy(e, slow);
    // Static leakage energy halves with the window...
    EXPECT_NEAR(bf.leakageJ, bs.leakageJ / 2, 1e-12);
    // ...while event energies are window-independent.
    EXPECT_DOUBLE_EQ(bf.sopJ, bs.sopJ);
}

TEST(EnergyModel, StatsDumpHasAllComponents)
{
    EnergyEvents e = nominal4096();
    EnergyParams p;
    const JsonValue g = energyToJson(e, p);
    EXPECT_GT(g.at("leakageJ").asDouble(), 0.0);
    EXPECT_GT(g.at("sopJ").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(g.at("totalJ").asDouble(),
                     computeEnergy(e, p).totalJ());
    EXPECT_GT(g.at("powerW").asDouble(), 0.0);
    EXPECT_GT(g.at("pJPerSop").asDouble(), 0.0);
    EXPECT_EQ(g.at("events").at("sops").asInt(),
              static_cast<int64_t>(e.sops));
}

} // anonymous namespace
} // namespace nscs
