#include "apps/classifier.hh"

#include <algorithm>

#include "apps/encoder.hh"
#include "util/logging.hh"

namespace nscs {

int32_t
autoClassifierThreshold(const QuantizedModel &model)
{
    return std::max<int32_t>(2, static_cast<int32_t>(model.dim) / 16);
}

Network
buildClassifierNetwork(const QuantizedModel &model, int32_t threshold)
{
    NSCS_ASSERT(model.classes > 0 && model.dim > 0,
                "empty quantized model");
    Network net;

    NeuronParams cls;
    cls.synWeight = {1, -1, 2, -2};
    cls.threshold = threshold;
    cls.leak = -1;
    cls.negThreshold = 0;
    cls.negSaturate = true;
    cls.resetMode = ResetMode::Store;
    cls.resetPotential = 0;

    PopId classes = net.addPopulation("classes", model.classes, cls);

    for (uint32_t f = 0; f < model.dim; ++f) {
        uint32_t input = net.addInput("f" + std::to_string(f));
        for (uint32_t c = 0; c < model.classes; ++c) {
            int8_t q = model.weight(c, f);
            if (q == 0)
                continue;
            uint8_t type = (q == 1) ? 0 : (q == -1) ? 1
                         : (q == 2) ? 2 : 3;
            net.bindInput(input, {classes, c}, type);
        }
    }
    for (uint32_t c = 0; c < model.classes; ++c)
        net.markOutput({classes, c});
    return net;
}

SpikingClassifier::SpikingClassifier(const QuantizedModel &model,
                                     const ClassifierOptions &opt)
    : qm_(model), opt_(opt)
{
    threshold_ = autoClassifierThreshold(qm_);
    net_ = buildClassifierNetwork(qm_, threshold_);
    compiled_ = compile(net_, CompileOptions{});

    gap_ = std::max<uint32_t>(compiled_.geom.delaySlots,
                              static_cast<uint32_t>(threshold_) + 8);

    NSCS_ASSERT(opt_.instances > 0,
                "classifier needs at least one instance lane");
    ChipParams cp;
    cp.width = compiled_.gridWidth;
    cp.height = compiled_.gridHeight;
    cp.coreGeom = compiled_.geom;
    cp.engine = opt_.engine;
    cp.instances = opt_.instances;
    sim_ = std::make_unique<Simulator>(cp, compiled_.cores);

    std::vector<std::vector<InputSpike>> targets(qm_.dim);
    for (uint32_t f = 0; f < qm_.dim; ++f) {
        auto it = compiled_.inputs.find("f" + std::to_string(f));
        if (it != compiled_.inputs.end())
            targets[f] = it->second;
    }
    auto source = std::make_unique<RateCodeSource>(std::move(targets));
    source_ = source.get();
    sim_->addSource(std::move(source));
}

uint64_t
SpikingClassifier::scheduleBatch(const Sample *samples, size_t n,
                                 uint64_t t0)
{
    const size_t words = (opt_.window + 63) / 64;
    encodeMasks_.resize(n * qm_.dim * words);
    for (size_t i = 0; i < n; ++i) {
        NSCS_ASSERT(samples[i].features.size() == qm_.dim,
                    "sample dim %zu != model dim %u",
                    samples[i].features.size(), qm_.dim);
        encodeRateMasks(samples[i].features.data(), qm_.dim, opt_.window,
                        encodeMasks_.data() + i * qm_.dim * words);
    }
    return source_->load(t0, opt_.window, n, encodeMasks_);
}

std::vector<uint32_t>
SpikingClassifier::readout(size_t n)
{
    // The log holds only this pass's ticks (classifyBatch clears it
    // first), so no window test is needed.
    const uint32_t classes = qm_.classes;
    std::vector<uint64_t> counts(n * classes, 0);
    for (const OutputSpike &s : sim_->recorder().spikes()) {
        if (s.line < classes && s.instance < n) {
            ++counts[size_t{s.instance} * classes + s.line];
            ++lastStats_.outputSpikes;
        }
    }

    // max_element returns the first maximum: a tie goes to the lowest
    // class and a silent lane reads class 0.
    std::vector<uint32_t> preds(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t *lane = counts.data() + i * classes;
        preds[i] = static_cast<uint32_t>(
            std::max_element(lane, lane + classes) - lane);
    }
    return preds;
}

uint32_t
SpikingClassifier::classify(const Sample &sample)
{
    return classifyBatch({sample})[0];
}

std::vector<uint32_t>
SpikingClassifier::classifyBatch(const std::vector<Sample> &samples)
{
    NSCS_ASSERT(!samples.empty() &&
                    samples.size() <= opt_.instances,
                "batch of %zu samples on %u instance lanes",
                samples.size(), opt_.instances);

    Chip &chip = sim_->chip();
    double energy0 = chip.energy().totalJ();

    // Drop the previous pass's spikes: the readout scans only this
    // pass, and a long-lived server's log stays bounded.  The source
    // keeps one pass and is replaced by scheduleBatch.
    sim_->recorder().clear();
    uint64_t injected =
        scheduleBatch(samples.data(), samples.size(), chip.now());

    uint64_t ticks = opt_.window + gap_;
    sim_->run(ticks);

    lastStats_ = InferenceStats{};
    lastStats_.inputSpikes = injected;
    lastStats_.ticks = ticks;
    std::vector<uint32_t> preds = readout(samples.size());
    lastStats_.energyJ = chip.energy().totalJ() - energy0;
    return preds;
}

EvalResult
SpikingClassifier::evaluate(const Dataset &data, uint32_t max_samples)
{
    EvalResult res;
    uint32_t n = static_cast<uint32_t>(data.samples.size());
    if (max_samples > 0 && max_samples < n)
        n = max_samples;
    if (n == 0)
        return res;

    // Fill the instance lanes, one sample per lane per pass; the tail
    // pass runs short.
    uint32_t correct = 0;
    InferenceStats total;
    std::vector<Sample> batch;
    for (uint32_t i = 0; i < n; i += opt_.instances) {
        uint32_t m = std::min(opt_.instances, n - i);
        batch.assign(data.samples.begin() + i,
                     data.samples.begin() + i + m);
        std::vector<uint32_t> preds = classifyBatch(batch);
        for (uint32_t k = 0; k < m; ++k)
            if (preds[k] == data.samples[i + k].label)
                ++correct;
        total.inputSpikes += lastStats_.inputSpikes;
        total.outputSpikes += lastStats_.outputSpikes;
        total.ticks += lastStats_.ticks;
        total.energyJ += lastStats_.energyJ;
    }
    res.accuracy = static_cast<double>(correct) /
        static_cast<double>(n);
    res.samples = n;
    res.meanPerInference.inputSpikes = total.inputSpikes / n;
    res.meanPerInference.outputSpikes = total.outputSpikes / n;
    res.meanPerInference.ticks = total.ticks / n;
    res.meanPerInference.energyJ = total.energyJ / n;
    return res;
}

} // namespace nscs
