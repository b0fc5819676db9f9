/**
 * @file
 * End-to-end spiking classifier (experiment T3).
 *
 * Deploys a quantised linear model onto the chip: one input line per
 * feature, one output neuron per class with the weight table
 * (+1, -1, +2, -2), synapses present where the quantised weight is
 * non-zero.  Features are rate-coded over a window; the decision is
 * the class whose output neuron spiked most.  Class neurons carry a
 * gentle -1 leak with a zero floor so residual potential drains in
 * the inter-sample gap.
 */

#ifndef NSCS_APPS_CLASSIFIER_HH
#define NSCS_APPS_CLASSIFIER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/dataset.hh"
#include "apps/rate_source.hh"
#include "apps/trainer.hh"
#include "prog/compiler.hh"
#include "runtime/simulator.hh"

namespace nscs {

/** Classifier deployment options. */
struct ClassifierOptions
{
    uint32_t window = 64;     //!< rate-code window in ticks
    uint32_t instances = 1;   //!< model replicas batched per pass
    EngineKind engine = EngineKind::Event;
};

/** Per-inference measurements. */
struct InferenceStats
{
    uint64_t inputSpikes = 0;   //!< encoded spikes injected
    uint64_t outputSpikes = 0;  //!< class spikes observed
    uint64_t ticks = 0;         //!< window + gap
    double energyJ = 0.0;       //!< chip energy for the inference
};

/** Aggregate evaluation result. */
struct EvalResult
{
    double accuracy = 0.0;
    uint32_t samples = 0;
    InferenceStats meanPerInference;  //!< averaged over samples
};

/** A deployed classifier. */
class SpikingClassifier
{
  public:
    /** Deploy @p model with default CompileOptions; class neurons
     *  fire at autoClassifierThreshold and samples are gap() =
     *  max(delay slots, threshold + 8) ticks apart. */
    SpikingClassifier(const QuantizedModel &model,
                      const ClassifierOptions &opt);

    /** Classify one sample: classifyBatch({sample})[0]. */
    uint32_t classify(const Sample &sample);

    /**
     * Classify up to ClassifierOptions::instances samples in one
     * hardware pass, one sample per instance lane; a short batch
     * (the uneven tail of a request stream) leaves the trailing
     * lanes idle.  Returns one predicted label per sample.  Each
     * prediction is bit-identical to a classify() of that sample on
     * a single-instance deployment.
     */
    std::vector<uint32_t> classifyBatch(
        const std::vector<Sample> &samples);

    /** Stats of the most recent pass (classify() or
     *  classifyBatch()). */
    const InferenceStats &lastStats() const { return lastStats_; }

    /**
     * Evaluate on a dataset (all samples when max_samples == 0), in
     * passes of ClassifierOptions::instances samples.
     */
    EvalResult evaluate(const Dataset &data, uint32_t max_samples = 0);

    /** The compiled model (inspection). */
    const CompiledModel &compiled() const { return compiled_; }

    /** The underlying simulator (inspection). */
    Simulator &simulator() { return *sim_; }

    /** Effective class-neuron threshold. */
    int32_t threshold() const { return threshold_; }

    /** Effective inter-sample gap. */
    uint32_t gap() const { return gap_; }

  private:
    QuantizedModel qm_;
    ClassifierOptions opt_;
    int32_t threshold_ = 1;
    uint32_t gap_ = 16;
    Network net_;
    CompiledModel compiled_;
    std::unique_ptr<Simulator> sim_;
    RateCodeSource *source_ = nullptr;  //!< owned by sim_ (source 0)
    InferenceStats lastStats_;
    /** Per-(lane, feature) offset words for scheduleBatch. */
    std::vector<uint64_t> encodeMasks_;

    /**
     * Load @p n samples (one per lane, lane i = samples[i]) into the
     * source as the pass starting at @p t0: one encodeRateMasks call
     * per sample turns each feature's rate code into ceil(window /
     * 64) offset words.  @return the spikes the pass injects.
     */
    uint64_t scheduleBatch(const Sample *samples, size_t n,
                           uint64_t t0);
    /**
     * Read out the pass just run on lanes [0, @p n): one scan of the
     * recorder tallies each lane's class-line spikes, and each lane
     * predicts its most-spiking class (ties to the lowest class, a
     * silent lane to class 0).  Adds the tallied spikes to
     * lastStats_.outputSpikes.
     */
    std::vector<uint32_t> readout(size_t n);
};

/**
 * Build just the logical classifier network (used by benches that
 * want to compile it with different options).  Appends one input per
 * feature named "f<i>" and marks one output line per class.
 */
Network buildClassifierNetwork(const QuantizedModel &model,
                               int32_t threshold);

/** The auto threshold heuristic: max(2, dim / 16). */
int32_t autoClassifierThreshold(const QuantizedModel &model);

} // namespace nscs

#endif // NSCS_APPS_CLASSIFIER_HH
