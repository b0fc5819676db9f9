#include "prog/corelet.hh"

#include "prog/compiler.hh"
#include "util/logging.hh"

namespace nscs {
namespace corelets {

Ports
delayLine(Network &net, const std::string &name, uint32_t length)
{
    if (length == 0)
        fatal("delayLine '%s' with length 0", name.c_str());
    Ports ports;
    ports.pop = net.addPopulation(name, length, relayNeuronParams());
    for (uint32_t i = 0; i + 1 < length; ++i)
        net.connect({ports.pop, i}, {ports.pop, i + 1}, 0, 1);
    ports.in.push_back({ports.pop, 0});
    ports.out.push_back({ports.pop, length - 1});
    return ports;
}

Ports
majority(Network &net, const std::string &name, uint32_t k)
{
    if (k < 1 || k > 256)
        fatal("majority '%s': k=%u outside [1, 256]", name.c_str(), k);
    NeuronParams p;
    p.synWeight = {1, 0, 0, 0};
    p.threshold = 1;
    p.leak = -static_cast<int16_t>(k - 1);
    p.negThreshold = 0;
    p.negSaturate = true;
    p.resetMode = ResetMode::Store;
    p.resetPotential = 0;
    Ports ports;
    ports.pop = net.addPopulation(name, 1, p);
    ports.in.push_back({ports.pop, 0});
    ports.out.push_back({ports.pop, 0});
    return ports;
}

} // namespace corelets
} // namespace nscs
