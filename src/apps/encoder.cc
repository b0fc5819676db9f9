#include "apps/encoder.hh"

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

} // namespace nscs
