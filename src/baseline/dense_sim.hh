/**
 * @file
 * Conventional clock-driven SNN simulator — the NEST/Brian-class
 * baseline.
 *
 * Runs the logical network IR directly: no cores, no crossbars, no
 * schedulers, no packets — just neurons, per-source synapse lists and
 * a delay ring, with every neuron updated every tick.  Dynamics are
 * the same integer semantics as the architecture (so deterministic
 * networks produce identical spike trains when the compiler inserted
 * no splitter relays), but the execution style is the conventional
 * software one.  It is the compiler's IR-level reference: tests run a
 * network here and through compile() on the chip and compare.
 *
 * Stochastic networks are supported with a single private PRNG whose
 * draw order differs from the per-core hardware streams, so
 * stochastic traces are statistically, not bitwise, comparable.
 */

#ifndef NSCS_BASELINE_DENSE_SIM_HH
#define NSCS_BASELINE_DENSE_SIM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "chip/chip.hh"
#include "prog/network.hh"
#include "util/rng.hh"

namespace nscs {

/** Baseline simulator counters. */
struct DenseCounters
{
    uint64_t ticks = 0;
    uint64_t sops = 0;     //!< synaptic events delivered
    uint64_t spikes = 0;   //!< neuron fires
    uint64_t evals = 0;    //!< neuron updates executed
};

/** The conventional simulator. */
class DenseSim
{
  public:
    /** Build from a validated network (referenced, not copied). */
    explicit DenseSim(const Network &net, uint16_t rng_seed = 0xACE1);

    /** Fire external input line @p input at tick @p tick (>= now). */
    void injectInput(uint32_t input, uint64_t tick);

    /** Execute one tick. */
    void tick();

    /** Execute @p n ticks. */
    void run(uint64_t n);

    /** Next tick to execute. */
    uint64_t now() const { return now_; }

    /** Output spikes (line ids follow Network::markOutput order). */
    const std::vector<OutputSpike> &outputs() const { return outputs_; }

    /** Drop drained output spikes. */
    void clearOutputs() { outputs_.clear(); }

    /** Membrane potential of a neuron (testing). */
    int32_t potential(uint32_t gid) const { return v_[gid]; }

    /** Counters. */
    const DenseCounters &counters() const { return counters_; }

    /** Return to the initial state (pending inputs cleared). */
    void reset();

  private:
    struct Syn
    {
        uint32_t dst;
        uint8_t type;
        uint8_t delay;
    };

    /** A spike event due at a tick: target neuron + type class. */
    struct Event
    {
        uint32_t dst;
        uint8_t type;
    };

    const Network &net_;
    uint16_t seed_;
    std::vector<NeuronParams> params_;
    std::vector<int32_t> v_;
    std::vector<std::vector<Syn>> synOf_;     //!< per source gid
    std::vector<int64_t> outputLine_;         //!< -1 or line id
    std::vector<std::vector<Event>> ring_;    //!< delay ring buffer
    uint32_t ringSize_ = 0;
    std::map<uint64_t, std::vector<uint32_t>> pendingInputs_;
    std::vector<OutputSpike> outputs_;
    DenseCounters counters_;
    Lfsr16 rng_;
    uint64_t now_ = 0;
};

} // namespace nscs

#endif // NSCS_BASELINE_DENSE_SIM_HH
