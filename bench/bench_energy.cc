/**
 * @file
 * Experiment T2 — energy breakdown at the nominal operating point
 * (Merolla'14 / SC'14 headline numbers' shape).
 *
 * Runs the cortical workload at the published nominal point (20 Hz
 * mean rate, 128 synapses per spike), prints the energy
 * decomposition, effective energy per synaptic event and GSOPS/W,
 * both for the simulated 16x16 chip and linearly scaled to 64x64.
 */

#include <iostream>

#include "bench/workload.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

namespace {

void
report(const char *label, const EnergyEvents &e)
{
    const EnergyParams ep;
    EnergyBreakdown b = computeEnergy(e, ep);
    double window = static_cast<double>(e.ticks) * ep.tickSeconds;
    double power = averagePowerW(b, e, ep);
    double sops_s = static_cast<double>(e.sops) / window;

    std::cout << label << ":\n";
    TextTable t({"component", "energy(uJ)", "share(%)"});
    struct Row { const char *name; double j; };
    const Row rows[] = {
        {"leakage", b.leakageJ},
        {"synaptic events", b.sopJ},
        {"neuron updates", b.neuronJ},
        {"spike generation", b.spikeJ},
        {"interconnect hops", b.hopJ},
    };
    for (const Row &r : rows)
        t.addRow({r.name, fmtF(r.j * 1e6, 3),
                  fmtF(100.0 * r.j / b.totalJ(), 1)});
    t.addRule();
    t.addRow({"total", fmtF(b.totalJ() * 1e6, 3), "100.0"});
    std::cout << t.str();
    std::cout << "  mean power        : " << fmtF(power * 1e3, 2)
              << " mW\n";
    std::cout << "  SOP rate          : " << fmtSi(sops_s, "SOPs/s")
              << "\n";
    std::cout << "  energy per SOP    : "
              << fmtF(energyPerSopJ(b, e) * 1e12, 1) << " pJ\n";
    std::cout << "  efficiency        : "
              << fmtF(sops_s / power / 1e9, 1) << " GSOPS/W\n\n";
}

} // namespace

int
main()
{
    std::cout <<
        "== T2: energy breakdown at the nominal operating point ==\n"
        "(shape target: tens of mW total at 20 Hz / 128 density;\n"
        " ~26 pJ/SOP; tens of GSOPS/W)\n\n";

    CorticalParams wp;
    wp.gridW = wp.gridH = 16;
    wp.density = 128;
    wp.ratePerTick = 0.02;  // 20 Hz at 1 ms ticks
    wp.seed = 11;
    CorticalWorkload w = makeCortical(wp);
    auto sim = makeCorticalSim(w, EngineKind::Event);
    sim->run(500);

    EnergyEvents e = sim->chip().energyEvents();
    report("simulated 16x16-core chip (500 ticks)", e);

    EnergyEvents big = e;
    big.cores = 4096;
    big.neurons = e.neurons * 16;
    big.sops = e.sops * 16;
    big.spikes = e.spikes * 16;
    big.hops = e.hops * 16 * 2;  // longer mean paths at 64x64
    report("linear scale-out to the 64x64-core chip", big);

    return 0;
}
