/**
 * @file
 * Experiment F3 — power vs mean firing rate for several synaptic
 * densities (Merolla'14 Fig. 4 shape).
 *
 * Runs the synthetic cortical workload on a 16x16-core chip for a
 * sweep of input rates and densities, measures the actual neuron
 * firing rate and event counts, and evaluates the calibrated energy
 * model.  A second column scales the activity to the published
 * 64x64-core chip (the model is linear in event counts).
 *
 * Expected shape: power is affine in rate with slope proportional
 * to density, over a static leakage floor.
 */

#include <iostream>

#include "bench/workload.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

int
main()
{
    std::cout <<
        "== F3: power vs firing rate x synaptic density ==\n"
        "(shape target: Merolla'14 Fig. 4 — affine in rate, slope\n"
        " ~ density, leakage floor at rate 0)\n\n";

    const uint64_t ticks = 200;
    const uint32_t grid = 16;
    const double tick_s = 1e-3;

    TextTable t({"density", "rate(Hz)", "SOPs/s", "power(mW)",
                 "pJ/SOP", "power@4096cores(mW)"});

    for (uint32_t density : {64u, 128u, 256u}) {
        for (double rate : {0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}) {
            CorticalParams wp;
            wp.gridW = wp.gridH = grid;
            wp.density = density;
            wp.ratePerTick = rate;
            wp.seed = 7;
            CorticalWorkload w = makeCortical(wp);
            auto sim = makeCorticalSim(w, EngineKind::Event);
            sim->run(ticks);

            EnergyEvents e = sim->chip().energyEvents();
            EnergyBreakdown b = sim->chip().energy();
            double window = static_cast<double>(ticks) * tick_s;
            double neuron_hz = static_cast<double>(e.spikes) /
                (static_cast<double>(e.neurons) * window);
            double sops_s = static_cast<double>(e.sops) / window;
            double power = averagePowerW(b, e, EnergyParams{});

            // Linear scale-out to the 64x64 chip: 16x the cores and
            // 16x the activity at the same per-core behaviour.
            EnergyEvents big = e;
            big.cores = 4096;
            big.neurons = e.neurons * 16;
            big.sops = e.sops * 16;
            big.spikes = e.spikes * 16;
            big.hops = e.hops * 16 * 2;  // mean hop distance ~2x
            EnergyBreakdown bigB = computeEnergy(big, EnergyParams{});
            double big_power = averagePowerW(bigB, big, EnergyParams{});

            t.addRow({std::to_string(density),
                      fmtF(neuron_hz, 1),
                      fmtSi(sops_s),
                      fmtF(power * 1e3, 2),
                      fmtF(energyPerSopJ(b, e) * 1e12, 1),
                      fmtF(big_power * 1e3, 1)});
        }
        t.addRule();
    }
    std::cout << t.str() << "\n";
    std::cout <<
        "published anchors (64x64 cores): ~26-30 mW leakage floor,\n"
        "63-72 mW at ~20 Hz / 128 density, ~26 pJ per synaptic\n"
        "event at the nominal point.\n";
    return 0;
}
