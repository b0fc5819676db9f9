/**
 * @file
 * The neuron behaviour gallery as a runnable example: prints input
 * and output rasters for every preset in the gallery, with the
 * parameters that produce each behaviour.
 *
 *   build/examples/neuron_behaviors [ticks]
 */

#include <cstdint>
#include <iostream>

#include "board/board.hh"
#include "neuron/behaviors.hh"
#include "runtime/trace.hh"

using namespace nscs;

int
main(int argc, char **argv)
{
    uint32_t ticks = 120;
    if (argc > 1) {
        uint64_t v = 0;
        if (argc > 2 || !parseCount(argv[1], UINT32_MAX, v)) {
            std::cerr << "usage: neuron_behaviors [ticks]\n";
            return 2;
        }
        ticks = static_cast<uint32_t>(v);
    }

    for (Behavior b : allBehaviors()) {
        BehaviorPreset preset = behaviorPreset(b);
        BehaviorTrace trace = runBehavior(preset, ticks);
        const NeuronParams &p = preset.params;

        std::cout << "### " << behaviorName(b) << "\n"
                  << behaviorDescription(b) << "\n"
                  << "params: w0=" << p.synWeight[0]
                  << " w1=" << p.synWeight[1]
                  << " leak=" << p.leak
                  << (p.leakReversal ? " (reversal)" : "")
                  << " threshold=" << p.threshold;
        if (p.thresholdMaskBits)
            std::cout << " maskBits="
                      << static_cast<int>(p.thresholdMaskBits);
        if (p.negThreshold)
            std::cout << " negThreshold=" << p.negThreshold
                      << (p.negSaturate ? " (saturate)" : " (reset)");
        std::cout << " resetMode="
                  << static_cast<int>(p.resetMode) << "\n";

        std::cout << " in  "
                  << renderSpikeRow(trace.inputTicks, 0, ticks)
                  << "\n out "
                  << renderSpikeRow(trace.spikes, 0, ticks) << "\n\n";
    }
    return 0;
}
