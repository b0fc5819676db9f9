/**
 * @file
 * Spike encoders and decoders: analog values <-> spike trains.
 */

#ifndef NSCS_APPS_ENCODER_HH
#define NSCS_APPS_ENCODER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace nscs {

/**
 * Deterministic rate code by error diffusion: a value v in [0, 1]
 * over a window of W ticks produces floor-or-ceil(v*W) evenly spaced
 * spikes.  Returns the spike ticks in [0, W).
 */
std::vector<uint32_t> encodeRate(double value, uint32_t window);

/**
 * Bitmask variant over @p n values: writes n trains of
 * ceil(window / 64) words each, train k at words + k * ceil(window /
 * 64), where bit b of a train's word w is set iff encodeRate(values[k],
 * window) would emit offset 64 * w + b (bits past the window are 0).
 * The recurrence runs once across all words, so each train is the
 * same as encodeRate's for any window.  One call runs the dispatched
 * simd::Ops::encodeRates kernel, which encodes several trains per
 * vector.  Lets a batch scheduler walk offsets across many trains
 * without materialising them.
 */
void encodeRateMasks(const double *values, size_t n, uint32_t window,
                     uint64_t *words);

/** encodeRateMasks of the one value @p value. */
void encodeRateMask(double value, uint32_t window, uint64_t *words);

/** Bernoulli rate code: spike each tick with probability v. */
std::vector<uint32_t> encodeRateStochastic(double value,
                                           uint32_t window,
                                           Xoshiro256 &rng);

/**
 * Time-to-first-spike code: one spike at round((1-v) * (window-1));
 * strong values spike early.  Values <= 0 produce no spike.
 */
std::vector<uint32_t> encodeTimeToSpike(double value, uint32_t window);

/**
 * Population code: @p units Gaussian tuning curves with centres
 * evenly spaced in [0, 1] and width sigma; unit i emits a
 * deterministic rate-coded train of its activation.
 */
std::vector<std::vector<uint32_t>> encodePopulation(double value,
                                                    uint32_t units,
                                                    double sigma,
                                                    uint32_t window);

/** Decode a rate-coded train: spikes / window. */
double decodeRate(const std::vector<uint32_t> &spikes,
                  uint32_t window);

} // namespace nscs

#endif // NSCS_APPS_ENCODER_HH
