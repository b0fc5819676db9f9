/**
 * @file
 * Synthetic datasets.
 *
 * The published system's application results use real sensor/vision
 * datasets we cannot ship; these generators produce synthetic
 * equivalents that exercise the identical train -> quantise ->
 * compile -> run tool-flow path (see DESIGN.md substitution record).
 * All generators are deterministic in their seed.
 */

#ifndef NSCS_APPS_DATASET_HH
#define NSCS_APPS_DATASET_HH

#include <cstdint>
#include <vector>

namespace nscs {

/** One labelled sample with features in [0, 1]. */
struct Sample
{
    std::vector<double> features;
    uint32_t label = 0;
};

/** A labelled dataset. */
struct Dataset
{
    uint32_t numClasses = 0;
    uint32_t featureDim = 0;
    std::vector<Sample> samples;

    /** Split off every k-th sample as a test set. */
    void split(uint32_t k, Dataset &train, Dataset &test) const;
};

/**
 * "Digits": @p classes random smooth prototype images of
 * side x side pixels; samples are prototypes plus Gaussian noise,
 * clamped to [0, 1].
 */
Dataset makeGaussianDigits(uint32_t classes, uint32_t side,
                           uint32_t per_class, double noise,
                           uint64_t seed);

/**
 * Bars: side x side images containing one horizontal bar; the label
 * is the row carrying the bar (side classes).  A linearly separable
 * variant of the classic neuromorphic bars demo.
 */
Dataset makeBars(uint32_t side, uint32_t per_class, double noise,
                 uint64_t seed);

} // namespace nscs

#endif // NSCS_APPS_DATASET_HH
