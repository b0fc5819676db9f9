#include "neuron/behaviors.hh"

#include <deque>

#include "neuron/neuron.hh"
#include "util/logging.hh"

namespace nscs {

const std::vector<Behavior> &
allBehaviors()
{
    static const std::vector<Behavior> all = {
        Behavior::TonicSpiking,
        Behavior::TonicBursting,
        Behavior::Integrator,
        Behavior::CoincidenceDetector,
        Behavior::Pacemaker,
        Behavior::StochasticSpiker,
        Behavior::RateDivider,
        Behavior::SaturatingInhibition,
        Behavior::NegativeRebound,
        Behavior::Adaptation,
        Behavior::Refractory,
        Behavior::ThresholdJitter,
    };
    return all;
}

std::string
behaviorName(Behavior b)
{
    switch (b) {
      case Behavior::TonicSpiking:         return "tonic-spiking";
      case Behavior::TonicBursting:        return "tonic-bursting";
      case Behavior::Integrator:           return "integrator";
      case Behavior::CoincidenceDetector:  return "coincidence-detector";
      case Behavior::Pacemaker:            return "pacemaker";
      case Behavior::StochasticSpiker:     return "stochastic-spiker";
      case Behavior::RateDivider:          return "rate-divider";
      case Behavior::SaturatingInhibition: return "saturating-inhibition";
      case Behavior::NegativeRebound:      return "negative-rebound";
      case Behavior::Adaptation:           return "adaptation";
      case Behavior::Refractory:           return "refractory";
      case Behavior::ThresholdJitter:      return "threshold-jitter";
    }
    panic("unknown behavior");
}

std::string
behaviorDescription(Behavior b)
{
    switch (b) {
      case Behavior::TonicSpiking:
        return "regular drive produces a regular spike train";
      case Behavior::TonicBursting:
        return "linear reset turns each strong input into a burst";
      case Behavior::Integrator:
        return "zero leak sums inputs perfectly across gaps";
      case Behavior::CoincidenceDetector:
        return "leak-reversal decay: only paired pulses reach threshold";
      case Behavior::Pacemaker:
        return "positive leak self-oscillates with no input";
      case Behavior::StochasticSpiker:
        return "masked random threshold yields irregular intervals";
      case Behavior::RateDivider:
        return "stochastic synapse passes ~1/4 of input spikes";
      case Behavior::SaturatingInhibition:
        return "inhibition floors at -beta; release rebound follows";
      case Behavior::NegativeRebound:
        return "negative reset converts inhibition into a rebound spike";
      case Behavior::Adaptation:
        return "delayed self-inhibition stretches the ISI after onset";
      case Behavior::Refractory:
        return "strong self-inhibition enforces a post-spike dead time";
      case Behavior::ThresholdJitter:
        return "stochastic threshold jitters an otherwise regular train";
    }
    panic("unknown behavior");
}

BehaviorPreset
behaviorPreset(Behavior b)
{
    BehaviorPreset preset;
    preset.behavior = b;
    NeuronParams &p = preset.params;
    switch (b) {
      case Behavior::TonicSpiking:
        p.synWeight[0] = 1;
        p.threshold = 4;
        preset.inputPeriod = 1;
        break;
      case Behavior::TonicBursting:
        p.synWeight[0] = 12;
        p.threshold = 4;
        p.resetMode = ResetMode::Linear;
        preset.inputPeriod = 8;
        break;
      case Behavior::Integrator:
        p.synWeight[0] = 1;
        p.threshold = 3;
        preset.inputPeriod = 7;
        break;
      case Behavior::CoincidenceDetector:
        p.synWeight[0] = 4;
        p.leak = -2;
        p.leakReversal = true;
        p.threshold = 4;
        preset.extraInputs = {5, 6, 20, 30, 31, 45, 60, 61};
        break;
      case Behavior::Pacemaker:
        p.leak = 2;
        p.threshold = 16;
        break;
      case Behavior::StochasticSpiker:
        p.leak = 2;
        p.threshold = 8;
        p.thresholdMaskBits = 4;
        break;
      case Behavior::RateDivider:
        p.synWeight[0] = 64;
        p.synStochastic[0] = true;
        p.threshold = 1;
        preset.inputPeriod = 1;
        break;
      case Behavior::SaturatingInhibition:
        p.synWeight[0] = -3;
        p.leak = 1;
        p.threshold = 6;
        p.negThreshold = 10;
        p.negSaturate = true;
        preset.inputPeriod = 1;
        preset.inputCount = 50;
        break;
      case Behavior::NegativeRebound:
        // The negative reset maps a deep inhibitory excursion to
        // -R = +25, just under threshold, so a rebound spike follows
        // within a few ticks.  beta sits below the positive reset
        // potential (-25) so normal firing never triggers the jump.
        p.synWeight[0] = -80;
        p.leak = 1;
        p.threshold = 30;
        p.negThreshold = 30;
        p.negSaturate = false;
        p.resetMode = ResetMode::Store;
        p.resetPotential = -25;
        preset.inputPeriod = 40;
        preset.inputStart = 10;
        break;
      case Behavior::Adaptation:
        p.synWeight[0] = 2;
        p.synWeight[1] = -2;
        p.threshold = 10;
        preset.inputPeriod = 1;
        preset.feedbackDelay = 1;
        break;
      case Behavior::Refractory:
        p.synWeight[0] = 5;
        p.synWeight[1] = -15;
        p.threshold = 5;
        p.negThreshold = 20;
        p.negSaturate = true;
        preset.inputPeriod = 1;
        preset.feedbackDelay = 1;
        break;
      case Behavior::ThresholdJitter:
        p.synWeight[0] = 4;
        p.threshold = 12;
        p.thresholdMaskBits = 3;
        preset.inputPeriod = 1;
        break;
    }
    validateNeuronParams(p, behaviorName(b).c_str());
    return preset;
}

BehaviorTrace
runBehavior(const BehaviorPreset &preset, uint32_t ticks)
{
    Neuron neuron(preset.params, preset.seed);
    BehaviorTrace trace;
    trace.potential.reserve(ticks);

    size_t extra_idx = 0;
    uint32_t delivered = 0;
    std::deque<uint32_t> feedback;

    for (uint32_t t = 0; t < ticks; ++t) {
        bool input = false;
        if (preset.inputPeriod > 0 && t >= preset.inputStart &&
            (t - preset.inputStart) % preset.inputPeriod == 0 &&
            (preset.inputCount == 0 || delivered < preset.inputCount)) {
            input = true;
            ++delivered;
        }
        while (extra_idx < preset.extraInputs.size() &&
               preset.extraInputs[extra_idx] == t) {
            input = true;
            ++extra_idx;
        }
        if (input) {
            neuron.receive(0);
            trace.inputTicks.push_back(t);
        }
        while (!feedback.empty() && feedback.front() == t) {
            neuron.receive(1);
            feedback.pop_front();
        }
        bool fired = neuron.tick();
        trace.potential.push_back(neuron.potential());
        if (fired) {
            trace.spikes.push_back(t);
            if (preset.feedbackDelay > 0)
                feedback.push_back(t + preset.feedbackDelay);
        }
    }
    return trace;
}

} // namespace nscs
