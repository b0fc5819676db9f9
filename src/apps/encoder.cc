#include "apps/encoder.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/simd.hh"

namespace nscs {

std::vector<uint32_t>
encodeRate(double value, uint32_t window)
{
    NSCS_ASSERT(value >= 0.0 && value <= 1.0,
                "rate value %f outside [0, 1]", value);
    std::vector<uint32_t> spikes;
    double acc = 0.0;
    for (uint32_t t = 0; t < window; ++t) {
        acc += value;
        if (acc >= 1.0 - 1e-12) {
            spikes.push_back(t);
            acc -= 1.0;
        }
    }
    return spikes;
}

void
encodeRateMasks(const double *values, size_t n, uint32_t window,
                uint64_t *words)
{
    for (size_t k = 0; k < n; ++k)
        NSCS_ASSERT(values[k] >= 0.0 && values[k] <= 1.0,
                    "rate value %f outside [0, 1]", values[k]);
    simd::ops().encodeRates(values, n, window, words);
}

void
encodeRateMask(double value, uint32_t window, uint64_t *words)
{
    encodeRateMasks(&value, 1, window, words);
}

std::vector<uint32_t>
encodeRateStochastic(double value, uint32_t window, Xoshiro256 &rng)
{
    NSCS_ASSERT(value >= 0.0 && value <= 1.0,
                "rate value %f outside [0, 1]", value);
    std::vector<uint32_t> spikes;
    for (uint32_t t = 0; t < window; ++t)
        if (rng.chance(value))
            spikes.push_back(t);
    return spikes;
}

std::vector<uint32_t>
encodeTimeToSpike(double value, uint32_t window)
{
    if (value <= 0.0 || window == 0)
        return {};
    if (value > 1.0)
        value = 1.0;
    auto t = static_cast<uint32_t>(
        std::lround((1.0 - value) * (window - 1)));
    return {t};
}

std::vector<std::vector<uint32_t>>
encodePopulation(double value, uint32_t units, double sigma,
                 uint32_t window)
{
    NSCS_ASSERT(units >= 2, "population code needs >= 2 units");
    std::vector<std::vector<uint32_t>> trains(units);
    for (uint32_t i = 0; i < units; ++i) {
        double centre = static_cast<double>(i) /
            static_cast<double>(units - 1);
        double act = std::exp(-(value - centre) * (value - centre) /
                              (2 * sigma * sigma));
        trains[i] = encodeRate(act, window);
    }
    return trains;
}

double
decodeRate(const std::vector<uint32_t> &spikes, uint32_t window)
{
    if (window == 0)
        return 0.0;
    return static_cast<double>(spikes.size()) /
        static_cast<double>(window);
}

} // namespace nscs
