#include "chip/energy.hh"

namespace nscs {

EnergyBreakdown
computeEnergy(const EnergyEvents &e, const EnergyParams &p)
{
    EnergyBreakdown b;
    double window = static_cast<double>(e.ticks) * p.tickSeconds;
    b.leakageJ = p.leakagePerCoreW * static_cast<double>(e.cores)
        * window;
    b.sopJ = p.sopEnergyJ * static_cast<double>(e.sops);
    b.neuronJ = p.neuronUpdateJ * static_cast<double>(e.neurons)
        * static_cast<double>(e.ticks);
    b.spikeJ = p.spikeGenJ * static_cast<double>(e.spikes);
    b.hopJ = p.hopEnergyJ * static_cast<double>(e.hops);
    return b;
}

double
averagePowerW(const EnergyBreakdown &b, const EnergyEvents &e,
              const EnergyParams &p)
{
    double window = static_cast<double>(e.ticks) * p.tickSeconds;
    if (window <= 0.0)
        return 0.0;
    return b.totalJ() / window;
}

double
energyPerSopJ(const EnergyBreakdown &b, const EnergyEvents &e)
{
    if (e.sops == 0)
        return 0.0;
    return b.totalJ() / static_cast<double>(e.sops);
}

JsonValue
energyToJson(const EnergyEvents &e, const EnergyParams &p)
{
    const EnergyBreakdown b = computeEnergy(e, p);
    JsonValue out = JsonValue::object();
    out.set("events", countersToJson(e, kEnergyEventFields));
    out.set("leakageJ", JsonValue::number(b.leakageJ));
    out.set("sopJ", JsonValue::number(b.sopJ));
    out.set("neuronJ", JsonValue::number(b.neuronJ));
    out.set("spikeJ", JsonValue::number(b.spikeJ));
    out.set("hopJ", JsonValue::number(b.hopJ));
    out.set("totalJ", JsonValue::number(b.totalJ()));
    out.set("powerW", JsonValue::number(averagePowerW(b, e, p)));
    out.set("pJPerSop", JsonValue::number(energyPerSopJ(b, e) * 1e12));
    return out;
}

} // namespace nscs
