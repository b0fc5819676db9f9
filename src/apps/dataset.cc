#include "apps/dataset.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace nscs {

void
Dataset::split(uint32_t k, Dataset &train, Dataset &test) const
{
    NSCS_ASSERT(k >= 2, "split ratio k must be >= 2");
    train.numClasses = test.numClasses = numClasses;
    train.featureDim = test.featureDim = featureDim;
    train.samples.clear();
    test.samples.clear();
    // Stratified: every k-th sample *of each class* goes to test.
    std::vector<uint64_t> seen(numClasses, 0);
    for (const Sample &s : samples) {
        if (seen[s.label]++ % k == 0)
            test.samples.push_back(s);
        else
            train.samples.push_back(s);
    }
}

namespace {

double
clamp01(double v)
{
    return std::min(1.0, std::max(0.0, v));
}

} // anonymous namespace

Dataset
makeGaussianDigits(uint32_t classes, uint32_t side,
                   uint32_t per_class, double noise, uint64_t seed)
{
    Xoshiro256 rng(seed);
    Dataset ds;
    ds.numClasses = classes;
    ds.featureDim = side * side;

    // Smooth random prototypes: a few Gaussian blobs per class.
    std::vector<std::vector<double>> protos(classes);
    for (uint32_t c = 0; c < classes; ++c) {
        auto &img = protos[c];
        img.assign(ds.featureDim, 0.0);
        uint32_t blobs = 2 + static_cast<uint32_t>(rng.below(3));
        for (uint32_t b = 0; b < blobs; ++b) {
            double cx = rng.uniform(0.15, 0.85) * side;
            double cy = rng.uniform(0.15, 0.85) * side;
            double sigma = rng.uniform(0.08, 0.2) * side;
            for (uint32_t y = 0; y < side; ++y) {
                for (uint32_t x = 0; x < side; ++x) {
                    double d2 = (x - cx) * (x - cx) +
                        (y - cy) * (y - cy);
                    img[y * side + x] +=
                        std::exp(-d2 / (2 * sigma * sigma));
                }
            }
        }
        for (auto &p : img)
            p = clamp01(p);
    }

    for (uint32_t c = 0; c < classes; ++c) {
        for (uint32_t i = 0; i < per_class; ++i) {
            Sample s;
            s.label = c;
            s.features.resize(ds.featureDim);
            for (uint32_t f = 0; f < ds.featureDim; ++f)
                s.features[f] =
                    clamp01(protos[c][f] + rng.normal(0.0, noise));
            ds.samples.push_back(std::move(s));
        }
    }
    // Interleave classes so split() stays stratified.
    std::vector<Sample> interleaved;
    interleaved.reserve(ds.samples.size());
    for (uint32_t i = 0; i < per_class; ++i)
        for (uint32_t c = 0; c < classes; ++c)
            interleaved.push_back(ds.samples[c * per_class + i]);
    ds.samples = std::move(interleaved);
    return ds;
}

Dataset
makeBars(uint32_t side, uint32_t per_class, double noise,
         uint64_t seed)
{
    Xoshiro256 rng(seed);
    Dataset ds;
    ds.numClasses = side;
    ds.featureDim = side * side;
    for (uint32_t i = 0; i < per_class * side; ++i) {
        Sample s;
        s.label = i % side;  // the row carrying the bar
        s.features.assign(ds.featureDim, 0.0);
        for (uint32_t k = 0; k < side; ++k)
            s.features[s.label * side + k] = 1.0;
        for (auto &f : s.features)
            f = std::min(1.0, std::max(0.0,
                                       f + rng.normal(0.0, noise)));
        ds.samples.push_back(std::move(s));
    }
    return ds;
}

} // namespace nscs
