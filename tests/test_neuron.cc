/**
 * @file
 * Unit and property tests for the digital neuron model: update
 * semantics, classification, analytic fast-forward and the behaviour
 * gallery.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "neuron/behaviors.hh"
#include "neuron/neuron.hh"
#include "neuron/params.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/saturate.hh"

namespace nscs {
namespace {

/** Coefficient of variation of a train's inter-spike intervals
 *  (at least 3 spikes). */
double
isiCv(const std::vector<uint32_t> &spikes)
{
    const double n = static_cast<double>(spikes.size() - 1);
    const double mean = (spikes.back() - spikes.front()) / n;
    double var = 0.0;
    for (size_t i = 1; i < spikes.size(); ++i) {
        const double d = spikes[i] - spikes[i - 1] - mean;
        var += d * d;
    }
    return std::sqrt(var / (n - 1)) / mean;
}

NeuronParams
base()
{
    NeuronParams p;
    p.threshold = 10;
    return p;
}

// --- validation ------------------------------------------------------------

TEST(NeuronParamsDeath, RejectsBadValues)
{
    NeuronParams p = base();
    p.synWeight[1] = 300;
    EXPECT_EXIT(validateNeuronParams(p, "t"),
                ::testing::ExitedWithCode(1), "synWeight");

    p = base();
    p.threshold = 0;
    EXPECT_EXIT(validateNeuronParams(p, "t"),
                ::testing::ExitedWithCode(1), "threshold");

    p = base();
    p.negThreshold = -1;
    EXPECT_EXIT(validateNeuronParams(p, "t"),
                ::testing::ExitedWithCode(1), "negThreshold");

    p = base();
    p.thresholdMaskBits = 17;
    EXPECT_EXIT(validateNeuronParams(p, "t"),
                ::testing::ExitedWithCode(1), "thresholdMaskBits");

    p = base();
    p.potentialBits = 5;
    EXPECT_EXIT(validateNeuronParams(p, "t"),
                ::testing::ExitedWithCode(1), "potentialBits");

    p = base();
    p.threshold = satMax(20);
    p.thresholdMaskBits = 8;
    EXPECT_EXIT(validateNeuronParams(p, "t"),
                ::testing::ExitedWithCode(1), "exceeds");
}

TEST(NeuronParams, JsonRoundTripNonDefault)
{
    NeuronParams p;
    p.synWeight = {3, -7, 255, -255};
    p.synStochastic = {true, false, true, false};
    p.leak = -9;
    p.leakReversal = true;
    p.leakStochastic = false;
    p.threshold = 77;
    p.negThreshold = 33;
    p.thresholdMaskBits = 5;
    p.resetMode = ResetMode::Linear;
    p.negSaturate = false;
    p.resetPotential = 4;
    p.initialPotential = -2;
    NeuronParams q = neuronParamsFromJson(neuronParamsToJson(p));
    EXPECT_EQ(p, q);
}

TEST(NeuronParams, JsonDefaultIsEmptyObject)
{
    NeuronParams p;
    EXPECT_EQ(neuronParamsToJson(p).dump(), "{}");
    NeuronParams q = neuronParamsFromJson(parseJson("{}").value);
    EXPECT_EQ(p, q);
}

// --- synaptic integration --------------------------------------------------

TEST(Integrate, DeterministicAddsTypedWeight)
{
    NeuronParams p = base();
    p.synWeight = {5, -3, 100, -100};
    EXPECT_EQ(integrateSynapse(0, p, 0, nullptr), 5);
    EXPECT_EQ(integrateSynapse(0, p, 1, nullptr), -3);
    EXPECT_EQ(integrateSynapse(10, p, 2, nullptr), 110);
    EXPECT_EQ(integrateSynapse(10, p, 3, nullptr), -90);
}

TEST(Integrate, SaturatesAtRegisterBounds)
{
    NeuronParams p = base();
    p.synWeight[0] = 255;
    int32_t v = satMax(20) - 10;
    EXPECT_EQ(integrateSynapse(v, p, 0, nullptr), satMax(20));
    p.synWeight[0] = -255;
    v = satMin(20) + 10;
    EXPECT_EQ(integrateSynapse(v, p, 0, nullptr), satMin(20));
}

TEST(Integrate, StochasticMatchesProbability)
{
    NeuronParams p = base();
    p.synWeight[0] = 64;  // p = 64/256 = 0.25
    p.synStochastic[0] = true;
    Lfsr16 rng(0xBEEF);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (integrateSynapse(0, p, 0, &rng) == 1)
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Integrate, StochasticNegativeAddsMinusOne)
{
    NeuronParams p = base();
    p.synWeight[0] = -255;  // p ~ 255/256, increment -1
    p.synStochastic[0] = true;
    Lfsr16 rng(0x77);
    int v = 0;
    for (int i = 0; i < 100; ++i)
        v = integrateSynapse(v, p, 0, &rng);
    EXPECT_LE(v, -90);
    EXPECT_GE(v, -100);
}

TEST(Integrate, StochasticConsumesExactlyOneDraw)
{
    NeuronParams p = base();
    p.synStochastic[0] = true;
    p.synWeight[0] = 10;
    Lfsr16 rng(0x21);
    integrateSynapse(0, p, 0, &rng);
    EXPECT_EQ(rng.draws(), 1u);
    // Deterministic type: no draw.
    integrateSynapse(0, p, 1, &rng);
    EXPECT_EQ(rng.draws(), 1u);
}

TEST(IntegrateDeath, StochasticWithoutRngPanics)
{
    NeuronParams p = base();
    p.synStochastic[0] = true;
    EXPECT_DEATH(integrateSynapse(0, p, 0, nullptr), "PRNG");
}

// --- leak ------------------------------------------------------------------

TEST(Leak, DeterministicSigned)
{
    NeuronParams p = base();
    p.leak = 3;
    EXPECT_EQ(applyLeak(0, p, nullptr), 3);
    p.leak = -3;
    EXPECT_EQ(applyLeak(0, p, nullptr), -3);
    p.leak = 0;
    EXPECT_EQ(applyLeak(42, p, nullptr), 42);
}

TEST(Leak, ReversalFollowsSign)
{
    NeuronParams p = base();
    p.leak = -2;
    p.leakReversal = true;
    EXPECT_EQ(applyLeak(10, p, nullptr), 8);    // decay down
    EXPECT_EQ(applyLeak(-10, p, nullptr), -8);  // decay up
    EXPECT_EQ(applyLeak(0, p, nullptr), 0);     // sgn(0) == 0
}

TEST(Leak, ReversalDivergesWithPositiveLeak)
{
    NeuronParams p = base();
    p.leak = 2;
    p.leakReversal = true;
    EXPECT_EQ(applyLeak(5, p, nullptr), 7);
    EXPECT_EQ(applyLeak(-5, p, nullptr), -7);
}

TEST(Leak, StochasticRate)
{
    NeuronParams p = base();
    p.leak = -128;  // p = 0.5, step -1
    p.leakStochastic = true;
    Lfsr16 rng(0xD00D);
    int32_t v = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        v = applyLeak(v, p, &rng);
    EXPECT_NEAR(static_cast<double>(-v) / n, 0.5, 0.05);
}

// --- threshold / fire / reset ----------------------------------------------

TEST(Fire, StoreResetToR)
{
    NeuronParams p = base();
    p.threshold = 10;
    p.resetPotential = 2;
    auto r = thresholdFireReset(10, p, nullptr);
    EXPECT_TRUE(r.fired);
    EXPECT_EQ(r.v, 2);
    r = thresholdFireReset(9, p, nullptr);
    EXPECT_FALSE(r.fired);
    EXPECT_EQ(r.v, 9);
}

TEST(Fire, LinearResetSubtracts)
{
    NeuronParams p = base();
    p.threshold = 10;
    p.resetMode = ResetMode::Linear;
    auto r = thresholdFireReset(23, p, nullptr);
    EXPECT_TRUE(r.fired);
    EXPECT_EQ(r.v, 13);
}

TEST(Fire, NoneResetKeepsPotential)
{
    NeuronParams p = base();
    p.threshold = 10;
    p.resetMode = ResetMode::None;
    auto r = thresholdFireReset(15, p, nullptr);
    EXPECT_TRUE(r.fired);
    EXPECT_EQ(r.v, 15);
}

TEST(Fire, NegativeSaturates)
{
    NeuronParams p = base();
    p.negThreshold = 20;
    p.negSaturate = true;
    auto r = thresholdFireReset(-21, p, nullptr);
    EXPECT_FALSE(r.fired);
    EXPECT_EQ(r.v, -20);
    r = thresholdFireReset(-20, p, nullptr);
    EXPECT_EQ(r.v, -20);
}

TEST(Fire, NegativeResetModes)
{
    NeuronParams p = base();
    p.negThreshold = 20;
    p.negSaturate = false;
    p.resetPotential = 5;

    p.resetMode = ResetMode::Store;
    EXPECT_EQ(thresholdFireReset(-25, p, nullptr).v, -5);

    p.resetMode = ResetMode::Linear;
    EXPECT_EQ(thresholdFireReset(-25, p, nullptr).v, -5);

    p.resetMode = ResetMode::None;
    EXPECT_EQ(thresholdFireReset(-25, p, nullptr).v, -25);
}

TEST(Fire, StochasticThresholdRaisesBar)
{
    NeuronParams p = base();
    p.threshold = 10;
    p.thresholdMaskBits = 4;  // eta in [0, 15]
    Lfsr16 rng(0xFACE);
    int fired = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        if (thresholdFireReset(17, p, &rng).fired)
            ++fired;
    // Fires when eta <= 7: probability 0.5.
    EXPECT_NEAR(static_cast<double>(fired) / n, 0.5, 0.05);
    // Always fires when v >= threshold + 15.
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(thresholdFireReset(25, p, &rng).fired);
}

TEST(Fire, EndOfTickOrderIsLeakThenThreshold)
{
    // v=9, leak +1, threshold 10: leak applies first, so it fires.
    NeuronParams p = base();
    p.threshold = 10;
    p.leak = 1;
    int32_t v = 9;
    EXPECT_TRUE(endOfTickUpdate(v, p, nullptr));
    EXPECT_EQ(v, 0);

    // v=10, leak -1: post-leak 9 < 10: no fire.
    p.leak = -1;
    v = 10;
    EXPECT_FALSE(endOfTickUpdate(v, p, nullptr));
    EXPECT_EQ(v, 9);
}

TEST(Fire, ApplyNegativeRuleIdempotentForSkippableClasses)
{
    Xoshiro256 rng(99);
    for (int trial = 0; trial < 500; ++trial) {
        NeuronParams p = base();
        p.negThreshold = static_cast<int32_t>(rng.below(50));
        p.negSaturate = rng.chance(0.5);
        p.resetMode = static_cast<ResetMode>(rng.below(3));
        p.resetPotential = static_cast<int32_t>(rng.range(-40, 40));
        if (classifyNeuron(p) == UpdateClass::Dense)
            continue;
        auto v0 = static_cast<int32_t>(rng.range(-200, 200));
        int32_t v1 = applyNegativeRule(v0, p);
        int32_t v2 = applyNegativeRule(v1, p);
        EXPECT_EQ(v1, v2) << "params trial " << trial;
    }
}

// --- classification ----------------------------------------------------------

TEST(Classify, PureWhenNoLeakNoPerTickDraws)
{
    NeuronParams p = base();
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Pure);
    p.synStochastic[0] = true;  // event-driven draws only
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Pure);
}

TEST(Classify, DenseOnPerTickDraws)
{
    NeuronParams p = base();
    p.thresholdMaskBits = 1;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Dense);
    p = base();
    p.leakStochastic = true;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Dense);
}

TEST(Classify, DenseOnReversalWithLeak)
{
    NeuronParams p = base();
    p.leak = -1;
    p.leakReversal = true;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Dense);
}

TEST(Classify, DenseOnNegativeLinearReset)
{
    NeuronParams p = base();
    p.negThreshold = 5;
    p.negSaturate = false;
    p.resetMode = ResetMode::Linear;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Dense);
}

TEST(Classify, LazyLeakCases)
{
    NeuronParams p = base();
    p.leak = 2;
    p.negSaturate = true;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::LazyLeak);

    p.negSaturate = false;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Dense);

    p = base();
    p.leak = -2;
    p.negSaturate = true;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::LazyLeak);

    p.negSaturate = false;
    p.resetMode = ResetMode::None;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::LazyLeak);

    p.resetMode = ResetMode::Store;
    EXPECT_EQ(classifyNeuron(p), UpdateClass::Dense);
}

// --- fast-forward property tests --------------------------------------------

/** Sweep seeds; each seed generates a random skippable neuron. */
class FastForwardProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FastForwardProperty, MatchesStepByStep)
{
    setQuiet(true);
    Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);

    // Draw until the parameters land in a skippable class (the only
    // classes leakForward/nextFireDelta are defined for).
    NeuronParams p;
    for (int attempt = 0; ; ++attempt) {
        ASSERT_LT(attempt, 100) << "generator failed to find a "
                                   "skippable parameter set";
        p = NeuronParams{};
        p.leak = static_cast<int16_t>(rng.range(-20, 20));
        p.threshold = static_cast<int32_t>(rng.range(1, 400));
        p.negThreshold = static_cast<int32_t>(rng.below(200));
        p.negSaturate = rng.chance(0.5);
        p.resetMode = static_cast<ResetMode>(rng.below(3));
        p.resetPotential = static_cast<int32_t>(rng.range(-100, 100));
        if (classifyNeuron(p) != UpdateClass::Dense)
            break;
    }

    // Start from a normalised state (reset contract), then follow
    // the unstimulated trajectory through up to three fires: the
    // post-fire state is a legal resume point for the fast-forward
    // (a Store reset can even park V below -beta).
    auto v0 = applyNegativeRule(
        static_cast<int32_t>(rng.range(-600, 600)), p);

    const uint64_t horizon = 3000;
    for (int segment = 0; segment < 3; ++segment) {
        std::vector<int32_t> traj;  // traj[k] = V after k updates
        traj.push_back(v0);
        uint64_t fire_at = 0;  // 0 = none within horizon
        int32_t v = v0;
        int32_t v_post_fire = 0;
        for (uint64_t k = 1; k <= horizon; ++k) {
            bool fired = endOfTickUpdate(v, p, nullptr);
            if (fired) {
                fire_at = k;
                v_post_fire = v;
                break;
            }
            traj.push_back(v);
        }

        auto delta = nextFireDelta(v0, p);
        if (fire_at > 0) {
            ASSERT_TRUE(delta.has_value())
                << "stepper fired at " << fire_at << " (segment "
                << segment << ") but nextFireDelta predicts never";
            EXPECT_EQ(*delta, fire_at) << "segment " << segment;
        } else if (delta.has_value()) {
            EXPECT_GT(*delta, horizon);
        }

        // leakForward must match every pre-fire sample.
        for (uint64_t k = 0; k < traj.size(); ++k)
            ASSERT_EQ(leakForward(v0, p, k), traj[k])
                << "diverged at k=" << k << " leak=" << p.leak
                << " segment " << segment;

        if (fire_at == 0)
            break;
        v0 = v_post_fire;  // resume from the post-fire state
    }
    setQuiet(false);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastForwardProperty,
                         ::testing::Range(0, 120));

TEST(FastForward, PacemakerPeriodExact)
{
    NeuronParams p;
    p.leak = 2;
    p.threshold = 16;
    auto d = nextFireDelta(0, p);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, 8u);
    // After the fire the cycle repeats from the reset potential.
    EXPECT_EQ(leakForward(0, p, 7), 14);
}

TEST(FastForward, RefireEveryTickWithNoneReset)
{
    NeuronParams p;
    p.threshold = 5;
    p.resetMode = ResetMode::None;
    auto d = nextFireDelta(7, p);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, 1u);
}

TEST(FastForwardDeath, RejectsDenseNeuron)
{
    NeuronParams p;
    p.thresholdMaskBits = 2;
    EXPECT_DEATH((void)leakForward(0, p, 5), "Dense");
    EXPECT_DEATH((void)nextFireDelta(0, p), "Dense");
}

// --- Neuron wrapper ----------------------------------------------------------

TEST(NeuronClass, TonicIntegration)
{
    NeuronParams p;
    p.synWeight[0] = 1;
    p.threshold = 4;
    Neuron n(p);
    std::vector<uint32_t> spikes;
    for (uint32_t t = 0; t < 20; ++t) {
        n.receive(0);
        if (n.tick())
            spikes.push_back(t);
    }
    EXPECT_EQ(spikes, (std::vector<uint32_t>{3, 7, 11, 15, 19}));
}

// --- behaviour gallery -------------------------------------------------------

TEST(Behaviors, GalleryIsComplete)
{
    EXPECT_EQ(allBehaviors().size(), 12u);
    for (Behavior b : allBehaviors()) {
        EXPECT_FALSE(behaviorName(b).empty());
        EXPECT_FALSE(behaviorDescription(b).empty());
        BehaviorPreset preset = behaviorPreset(b);
        EXPECT_EQ(preset.behavior, b);
    }
}

TEST(Behaviors, TonicSpikingIsRegular)
{
    auto tr = runBehavior(behaviorPreset(Behavior::TonicSpiking), 400);
    ASSERT_GE(tr.spikes.size(), 50u);
    for (size_t i = 1; i < tr.spikes.size(); ++i)
        EXPECT_EQ(tr.spikes[i] - tr.spikes[i - 1], 4u);
}

TEST(Behaviors, TonicBurstingHasBurstStructure)
{
    auto tr = runBehavior(behaviorPreset(Behavior::TonicBursting), 400);
    ASSERT_GE(tr.spikes.size(), 20u);
    // Bursts of 3 spikes in consecutive ticks, gaps of 6.
    int ones = 0, sixes = 0;
    for (size_t i = 1; i < tr.spikes.size(); ++i) {
        uint32_t isi = tr.spikes[i] - tr.spikes[i - 1];
        if (isi == 1)
            ++ones;
        else if (isi == 6)
            ++sixes;
    }
    EXPECT_GT(ones, 2 * sixes / 2);
    EXPECT_GT(sixes, 0);
    EXPECT_GT(isiCv(tr.spikes), 0.5);
}

TEST(Behaviors, IntegratorCountsInputs)
{
    auto preset = behaviorPreset(Behavior::Integrator);
    auto tr = runBehavior(preset, 420);
    // Inputs every 7 ticks, threshold 3: one spike per 3 inputs.
    uint64_t inputs = tr.inputTicks.size();
    EXPECT_EQ(tr.spikes.size(), inputs / 3);
}

TEST(Behaviors, CoincidenceDetectorOnlyFiresOnPairs)
{
    auto tr = runBehavior(behaviorPreset(Behavior::CoincidenceDetector),
                          100);
    // Pairs end at ticks 6, 31, 61; singles at 20, 45 must not fire.
    EXPECT_EQ(tr.spikes,
              (std::vector<uint32_t>{6, 31, 61}));
}

TEST(Behaviors, PacemakerFiresWithoutInput)
{
    auto tr = runBehavior(behaviorPreset(Behavior::Pacemaker), 200);
    EXPECT_TRUE(tr.inputTicks.empty());
    ASSERT_GE(tr.spikes.size(), 10u);
    for (size_t i = 1; i < tr.spikes.size(); ++i)
        EXPECT_EQ(tr.spikes[i] - tr.spikes[i - 1], 8u);
}

TEST(Behaviors, StochasticSpikerIsIrregular)
{
    auto tr = runBehavior(behaviorPreset(Behavior::StochasticSpiker),
                          4000);
    ASSERT_GE(tr.spikes.size(), 100u);
    EXPECT_GT(isiCv(tr.spikes), 0.1);
}

TEST(Behaviors, RateDividerQuartersTheRate)
{
    auto tr = runBehavior(behaviorPreset(Behavior::RateDivider), 8000);
    double ratio = static_cast<double>(tr.spikes.size()) /
        static_cast<double>(tr.inputTicks.size());
    EXPECT_NEAR(ratio, 0.25, 0.03);
}

TEST(Behaviors, SaturatingInhibitionSilencesAndRebounds)
{
    auto tr = runBehavior(
        behaviorPreset(Behavior::SaturatingInhibition), 200);
    ASSERT_FALSE(tr.spikes.empty());
    // Silent while inhibited (inputs stop at tick 49).
    EXPECT_GE(tr.spikes.front(), 50u);
    // Climbs from the -10 floor at +1/tick to threshold 6.
    EXPECT_EQ(tr.spikes.front(), 65u);
    // Then fires regularly every 6 ticks.
    EXPECT_EQ(tr.spikes[1] - tr.spikes[0], 6u);
}

TEST(Behaviors, NegativeReboundFollowsInhibition)
{
    auto tr = runBehavior(behaviorPreset(Behavior::NegativeRebound),
                          400);
    ASSERT_GE(tr.spikes.size(), 3u);
    // Every spike lands within 6 ticks after an inhibitory input.
    for (uint32_t s : tr.spikes) {
        bool near = false;
        for (uint32_t in : tr.inputTicks)
            if (s >= in && s - in <= 6)
                near = true;
        EXPECT_TRUE(near) << "spike at " << s
                          << " without recent inhibition";
    }
}

TEST(Behaviors, AdaptationStretchesIsi)
{
    auto tr = runBehavior(behaviorPreset(Behavior::Adaptation), 300);
    ASSERT_GE(tr.spikes.size(), 10u);
    // Onset: ticks of drive until the first spike; steady state: the
    // self-inhibited period.  Adaptation means steady > onset.
    uint32_t onset = tr.spikes[0] + 1;
    uint32_t steady = tr.spikes[9] - tr.spikes[8];
    EXPECT_GT(steady, onset);
}

TEST(Behaviors, RefractoryEnforcesDeadTime)
{
    auto tr = runBehavior(behaviorPreset(Behavior::Refractory), 300);
    ASSERT_GE(tr.spikes.size(), 10u);
    // Driven every tick at weight 5 = threshold, yet ISIs are 4.
    for (size_t i = 1; i < tr.spikes.size(); ++i)
        EXPECT_GE(tr.spikes[i] - tr.spikes[i - 1], 4u);
}

TEST(Behaviors, ThresholdJitterAddsVariance)
{
    auto regular = runBehavior(behaviorPreset(Behavior::TonicSpiking),
                               2000);
    auto jitter = runBehavior(behaviorPreset(Behavior::ThresholdJitter),
                              2000);
    ASSERT_GE(jitter.spikes.size(), 50u);
    EXPECT_GT(isiCv(jitter.spikes), isiCv(regular.spikes) + 0.05);
}

} // anonymous namespace
} // namespace nscs
