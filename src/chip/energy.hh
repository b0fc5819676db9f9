/**
 * @file
 * Event-based energy/power model.
 *
 * The modelled architecture is fully event-driven at the circuit
 * level, so chip energy decomposes into a static leakage term plus
 * per-event active energies.  The default constants are calibrated so
 * that a 64x64-core chip running the published nominal operating
 * point (1 M neurons at 20 Hz mean rate, 128 active synapses per
 * spike, 1 ms ticks) lands near the published figures: total power in
 * the tens of milliwatts, effective energy per synaptic event around
 * 25 pJ.  EnergyModel.CalibrationAnchors holds the nominal point to
 * the published bands, and paper.bench_power (experiment F3) holds
 * simulated counts to them; the model reproduces published *scaling
 * shapes*, not silicon measurements.
 * Chips, boards and their stats documents price events with the
 * default-constructed EnergyParams.
 */

#ifndef NSCS_CHIP_ENERGY_HH
#define NSCS_CHIP_ENERGY_HH

#include <cstdint>

#include "util/stats.hh"

namespace nscs {

/** Energy constants (Joules / Watts / seconds). */
struct EnergyParams
{
    double leakagePerCoreW = 6.5e-6;  //!< static leakage per core
    double sopEnergyJ = 12e-12;       //!< per synaptic event (read+add)
    double neuronUpdateJ = 1.1e-12;   //!< per neuron per tick
    double spikeGenJ = 18e-12;        //!< per fired spike (incl. sched)
    double hopEnergyJ = 3.0e-12;      //!< per router traversal
    double tickSeconds = 1e-3;        //!< real-time tick duration
};

/** Architectural event totals the model consumes. */
struct EnergyEvents
{
    uint64_t ticks = 0;          //!< elapsed ticks
    uint64_t cores = 0;          //!< number of cores
    uint64_t neurons = 0;        //!< total neurons across cores
    uint64_t sops = 0;           //!< synaptic events delivered
    uint64_t spikes = 0;         //!< neuron fires
    uint64_t hops = 0;           //!< router traversals
};

/** Document keys of the EnergyEvents fields. */
inline constexpr CounterField<EnergyEvents> kEnergyEventFields[] = {
    {"ticks", &EnergyEvents::ticks},
    {"cores", &EnergyEvents::cores},
    {"neurons", &EnergyEvents::neurons},
    {"sops", &EnergyEvents::sops},
    {"spikes", &EnergyEvents::spikes},
    {"hops", &EnergyEvents::hops},
};

/** Energy decomposition over a measurement window. */
struct EnergyBreakdown
{
    double leakageJ = 0;   //!< static leakage
    double sopJ = 0;       //!< synaptic events
    double neuronJ = 0;    //!< neuron updates
    double spikeJ = 0;     //!< spike generation
    double hopJ = 0;       //!< interconnect traversals

    /** Total energy in Joules. */
    double
    totalJ() const
    {
        return leakageJ + sopJ + neuronJ + spikeJ + hopJ;
    }
};

/** Compute the decomposition for @p events under @p params. */
EnergyBreakdown computeEnergy(const EnergyEvents &events,
                              const EnergyParams &params);

/** Mean power in Watts over the window covered by @p events. */
double averagePowerW(const EnergyBreakdown &breakdown,
                     const EnergyEvents &events,
                     const EnergyParams &params);

/** Effective energy per synaptic event (Joules; 0 if no SOPs). */
double energyPerSopJ(const EnergyBreakdown &breakdown,
                     const EnergyEvents &events);

/**
 * The stats document's energy group for @p events: the events, each
 * breakdown term, totalJ, powerW and pJPerSop.
 */
JsonValue energyToJson(const EnergyEvents &events,
                       const EnergyParams &params);

} // namespace nscs

#endif // NSCS_CHIP_ENERGY_HH
