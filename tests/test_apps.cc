/**
 * @file
 * Application-layer tests: synthetic datasets, spike encoders, the
 * trainer/quantiser, and the deployed spiking classifier.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "apps/classifier.hh"
#include "apps/dataset.hh"
#include "apps/encoder.hh"
#include "apps/trainer.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace nscs {
namespace {

// --- datasets ----------------------------------------------------------------

TEST(Dataset, GaussianDigitsShapeAndDeterminism)
{
    Dataset a = makeGaussianDigits(4, 8, 10, 0.1, 7);
    Dataset b = makeGaussianDigits(4, 8, 10, 0.1, 7);
    EXPECT_EQ(a.numClasses, 4u);
    EXPECT_EQ(a.featureDim, 64u);
    EXPECT_EQ(a.samples.size(), 40u);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].label, b.samples[i].label);
        EXPECT_EQ(a.samples[i].features, b.samples[i].features);
    }
    Dataset c = makeGaussianDigits(4, 8, 10, 0.1, 8);
    EXPECT_NE(a.samples[0].features, c.samples[0].features);
}

TEST(Dataset, FeaturesInUnitRange)
{
    Dataset ds = makeGaussianDigits(3, 6, 20, 0.3, 5);
    for (const Sample &s : ds.samples) {
        EXPECT_LT(s.label, 3u);
        for (double f : s.features) {
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
        }
    }
}

TEST(Dataset, SplitIsStratifiedAndDisjoint)
{
    Dataset ds = makeGaussianDigits(2, 6, 30, 0.1, 3);
    Dataset train, test;
    ds.split(4, train, test);
    EXPECT_EQ(train.samples.size() + test.samples.size(),
              ds.samples.size());
    // Per-class stratification: ceil(30 / 4) samples per class.
    EXPECT_EQ(test.samples.size(), 16u);
    // Both classes appear in the test split (samples interleave).
    std::set<uint32_t> labels;
    for (const Sample &s : test.samples)
        labels.insert(s.label);
    EXPECT_EQ(labels.size(), 2u);
}

TEST(Dataset, XorLabelsMatchQuadrants)
{
    Dataset ds = makeXor(50, 0.02, 11);
    EXPECT_EQ(ds.featureDim, 2u);
    for (const Sample &s : ds.samples) {
        bool qx = s.features[0] > 0.5;
        bool qy = s.features[1] > 0.5;
        EXPECT_EQ(s.label, (qx != qy) ? 1u : 0u);
    }
}

TEST(Dataset, BarsHaveBarStructure)
{
    Dataset ds = makeBars(6, 20, 0.0, 13);
    EXPECT_EQ(ds.numClasses, 6u);
    for (const Sample &s : ds.samples) {
        double sum = 0;
        for (double f : s.features)
            sum += f;
        EXPECT_DOUBLE_EQ(sum, 6.0);  // exactly one bar, no noise
        // The bar occupies the labelled row.
        for (uint32_t k = 0; k < 6; ++k)
            EXPECT_EQ(s.features[s.label * 6 + k], 1.0);
    }
}

// --- encoders ----------------------------------------------------------------

TEST(Encoder, RateCountIsExact)
{
    for (double v : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        auto spikes = encodeRate(v, 64);
        EXPECT_EQ(spikes.size(),
                  static_cast<size_t>(std::lround(v * 64)))
            << "value " << v;
    }
    EXPECT_TRUE(encodeRate(0.0, 64).empty());
}

TEST(Encoder, RateSpikesAreEvenlySpaced)
{
    auto spikes = encodeRate(0.25, 64);
    ASSERT_EQ(spikes.size(), 16u);
    for (size_t i = 1; i < spikes.size(); ++i)
        EXPECT_EQ(spikes[i] - spikes[i - 1], 4u);
}

TEST(Encoder, RateStochasticMean)
{
    Xoshiro256 rng(21);
    size_t total = 0;
    for (int rep = 0; rep < 50; ++rep)
        total += encodeRateStochastic(0.3, 100, rng).size();
    EXPECT_NEAR(static_cast<double>(total) / 5000.0, 0.3, 0.03);
}

TEST(Encoder, TimeToSpikePosition)
{
    EXPECT_EQ(encodeTimeToSpike(1.0, 64),
              (std::vector<uint32_t>{0}));
    EXPECT_EQ(encodeTimeToSpike(0.5, 65),
              (std::vector<uint32_t>{32}));
    EXPECT_TRUE(encodeTimeToSpike(0.0, 64).empty());
}

TEST(Encoder, PopulationPeaksAtNearestUnit)
{
    auto trains = encodePopulation(0.5, 5, 0.15, 100);
    ASSERT_EQ(trains.size(), 5u);
    // Centres at 0, .25, .5, .75, 1: unit 2 responds most.
    size_t best = 0;
    for (size_t i = 1; i < trains.size(); ++i)
        if (trains[i].size() > trains[best].size())
            best = i;
    EXPECT_EQ(best, 2u);
    EXPECT_EQ(trains[2].size(), 100u);  // activation 1 at centre
}

TEST(Encoder, DecodeRateInvertsEncode)
{
    for (double v : {0.1, 0.4, 0.9})
        EXPECT_NEAR(decodeRate(encodeRate(v, 200), 200), v, 0.01);
}

// --- trainer ------------------------------------------------------------------

TEST(Trainer, LearnsSeparableDigits)
{
    Dataset ds = makeGaussianDigits(4, 8, 40, 0.05, 17);
    Dataset train, test;
    ds.split(5, train, test);
    LinearModel model = trainPerceptron(train, 10, 1);
    EXPECT_GE(modelAccuracy(model, train), 0.95);
    EXPECT_GE(modelAccuracy(model, test), 0.9);
}

TEST(Trainer, QuantisationKeepsMostAccuracy)
{
    Dataset ds = makeBars(6, 60, 0.05, 23);
    Dataset train, test;
    ds.split(5, train, test);
    LinearModel model = trainPerceptron(train, 12, 2);
    QuantizedModel qm = quantize(model);
    EXPECT_EQ(qm.classes, 6u);
    EXPECT_EQ(qm.dim, 36u);
    for (int8_t q : qm.q) {
        EXPECT_GE(q, -2);
        EXPECT_LE(q, 2);
    }
    double fa = modelAccuracy(model, test);
    double qa = quantizedAccuracy(qm, test);
    EXPECT_GE(fa, 0.9);
    EXPECT_GE(qa, fa - 0.15);
}

TEST(Trainer, XorIsNotLinearlySeparable)
{
    // Sanity: the linear model must NOT ace XOR.
    Dataset ds = makeXor(100, 0.02, 31);
    LinearModel model = trainPerceptron(ds, 10, 3);
    EXPECT_LE(modelAccuracy(model, ds), 0.8);
}

// --- spiking classifier ---------------------------------------------------------

TEST(Classifier, NetworkShape)
{
    Dataset ds = makeBars(4, 10, 0.05, 41);
    LinearModel model = trainPerceptron(ds, 5, 4);
    QuantizedModel qm = quantize(model);
    Network net = buildClassifierNetwork(qm, 3);
    EXPECT_EQ(net.numInputs(), 16u);
    EXPECT_EQ(net.numOutputs(), 4u);
    EXPECT_EQ(net.numNeurons(), 4u);
}

TEST(Classifier, EndToEndBars)
{
    Dataset ds = makeBars(5, 40, 0.03, 43);
    Dataset train, test;
    ds.split(4, train, test);
    LinearModel model = trainPerceptron(train, 10, 5);
    QuantizedModel qm = quantize(model);

    ClassifierOptions opt;
    opt.window = 48;
    SpikingClassifier clf(qm, opt);
    EvalResult res = clf.evaluate(test);
    EXPECT_EQ(res.samples, test.samples.size());
    EXPECT_GE(res.accuracy, 0.85)
        << "on-chip accuracy collapsed vs host "
        << quantizedAccuracy(qm, test);
    EXPECT_GT(res.meanPerInference.inputSpikes, 0u);
    EXPECT_GT(res.meanPerInference.energyJ, 0.0);
    EXPECT_EQ(res.meanPerInference.ticks, opt.window + clf.gap());
}

TEST(Classifier, OnChipAgreesWithHostQuantised)
{
    Dataset ds = makeGaussianDigits(3, 6, 20, 0.05, 47);
    LinearModel model = trainPerceptron(ds, 8, 6);
    QuantizedModel qm = quantize(model);

    ClassifierOptions opt;
    opt.window = 64;
    SpikingClassifier clf(qm, opt);

    uint32_t agree = 0, n = 24;
    for (uint32_t i = 0; i < n; ++i) {
        const Sample &s = ds.samples[i];
        uint32_t host = 0;
        double best = -1e18;
        for (uint32_t c = 0; c < qm.classes; ++c) {
            double score = 0;
            for (uint32_t f = 0; f < qm.dim; ++f)
                score += qm.weight(c, f) * s.features[f];
            if (score > best) {
                best = score;
                host = c;
            }
        }
        if (clf.classify(s) == host)
            ++agree;
    }
    EXPECT_GE(agree, n * 3 / 4)
        << "rate-coded chip decision diverges from host argmax";
}

TEST(Classifier, DeterministicAcrossRuns)
{
    Dataset ds = makeBars(4, 10, 0.05, 53);
    LinearModel model = trainPerceptron(ds, 6, 7);
    QuantizedModel qm = quantize(model);
    ClassifierOptions opt;
    opt.window = 32;

    std::vector<uint32_t> first;
    for (int rep = 0; rep < 2; ++rep) {
        SpikingClassifier clf(qm, opt);
        std::vector<uint32_t> preds;
        for (uint32_t i = 0; i < 8; ++i)
            preds.push_back(clf.classify(ds.samples[i]));
        if (rep == 0)
            first = preds;
        else
            EXPECT_EQ(first, preds);
    }
}

TEST(Classifier, ReadoutTiesToLowestClassAndSilentLaneToZero)
{
    // Classes 1 and 2 share the strongest row, so they integrate the
    // same input and spike alike on every lane: the tie must go to 1.
    QuantizedModel qm;
    qm.classes = 4;
    qm.dim = 4;
    qm.q = {-1, -1, -1, -1,
            2, 2, 2, 2,
            2, 2, 2, 2,
            1, 1, 1, 1};

    Sample strong{{0.8, 0.6, 0.7, 0.9}, 0};
    Sample silent{{0.0, 0.0, 0.0, 0.0}, 0};
    ClassifierOptions opt;
    opt.window = 32;
    opt.instances = 4;
    SpikingClassifier clf(qm, opt);
    std::vector<uint32_t> preds =
        clf.classifyBatch({strong, strong, silent, strong});
    EXPECT_EQ(preds, (std::vector<uint32_t>{1, 1, 0, 1}));

    // The tally is over the pass's class-line spikes, and the silent
    // lane really was silent.
    uint64_t class_spikes = 0;
    for (const OutputSpike &s : clf.simulator().recorder().spikes()) {
        if (s.line < qm.classes) {
            ++class_spikes;
            EXPECT_NE(s.instance, 2u);
        }
    }
    EXPECT_GT(class_spikes, 0u);
    EXPECT_EQ(clf.lastStats().outputSpikes, class_spikes);

    ClassifierOptions one = opt;
    one.instances = 1;
    SpikingClassifier single(qm, one);
    EXPECT_EQ(single.classify(strong), 1u);
    EXPECT_EQ(single.classify(silent), 0u);
}

} // anonymous namespace
} // namespace nscs
