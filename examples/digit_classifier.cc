/**
 * @file
 * End-to-end spiking digit classifier.
 *
 * Generates a synthetic 8x8 "digits" dataset, trains a linear
 * model off-chip, quantises it to the five on-chip weight levels,
 * deploys it through the compile/place/route tool flow and runs
 * rate-coded inference on the simulated chip — the full published
 * application workflow on synthetic data.
 *
 * With a third argument B > 1 the deployment also runs in throughput
 * mode: B replica instance lanes share the compiled crossbars, one
 * request per lane per hardware pass, and the same test set is
 * re-evaluated batched — B requests per pass.  Every sample's batched
 * prediction must equal its deploy-per-request prediction; the
 * program exits 1 on any difference.
 *
 *   build/examples/digit_classifier [classes] [per_class] [instances]
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "apps/classifier.hh"
#include "apps/dataset.hh"
#include "apps/trainer.hh"
#include "board/board.hh"
#include "util/table.hh"

using namespace nscs;

int
main(int argc, char **argv)
{
    // argv[i] as a count in [lo, hi], or dflt when absent; anything
    // else is a usage error.
    auto count = [&](int i, uint32_t dflt, uint64_t lo,
                     uint64_t hi) -> uint32_t {
        uint64_t v = dflt;
        if (argc > 4 ||
            (i < argc && (!parseCount(argv[i], hi, v) || v < lo))) {
            std::cerr << "usage: digit_classifier [classes] [per_class] "
                         "[instances]\n";
            std::exit(2);
        }
        return static_cast<uint32_t>(v);
    };
    const uint32_t classes = count(1, 10, 1, 256);
    // Every fifth sample of a class is held out for test, so two is
    // the fewest that leave one to train on.
    const uint32_t per_class = count(2, 40, 2, 1000);
    // nscs_run's bound on instance lanes.
    const uint32_t instances = count(3, 1, 1, 1u << 16);

    std::cout << "generating " << classes << "-class synthetic 8x8 "
              << "digits (" << per_class << " samples/class)...\n";
    Dataset ds = makeGaussianDigits(classes, 8, per_class, 0.06, 2024);
    Dataset train, test;
    ds.split(5, train, test);

    std::cout << "training averaged perceptron on "
              << train.samples.size() << " samples...\n";
    LinearModel model = trainPerceptron(train, 12, 7);
    QuantizedModel qm = quantize(model);

    ClassifierOptions opt;
    opt.window = 64;
    SpikingClassifier clf(qm, opt);
    const CompiledModel &compiled = clf.compiled();
    std::cout << "deployed onto a " << compiled.gridWidth << "x"
              << compiled.gridHeight << " core grid ("
              << compiled.stats.synapses << " synapses, threshold "
              << clf.threshold() << ", window " << opt.window
              << " ticks)\n\n";

    EvalResult res = clf.evaluate(test);

    TextTable t({"metric", "value"});
    t.addRow({"float accuracy (host)",
              fmtF(100 * modelAccuracy(model, test), 1) + "%"});
    t.addRow({"quantised accuracy (host)",
              fmtF(100 * quantizedAccuracy(qm, test), 1) + "%"});
    t.addRow({"spiking accuracy (chip)",
              fmtF(100 * res.accuracy, 1) + "%"});
    t.addRow({"test samples", fmtInt(res.samples)});
    t.addRow({"input spikes / inference",
              fmtInt(res.meanPerInference.inputSpikes)});
    t.addRow({"output spikes / inference",
              fmtInt(res.meanPerInference.outputSpikes)});
    t.addRow({"energy / inference",
              fmtF(res.meanPerInference.energyJ * 1e6, 3) + " uJ"});
    t.addRow({"latency / inference",
              fmtInt(res.meanPerInference.ticks) + " ticks"});
    std::cout << t.str();

    if (instances > 1) {
        // Throughput mode: the same model deployed once with B
        // instance lanes, one request per lane per classifyBatch
        // pass.  The baseline is the serving model batching
        // replaces — an independent deployment per request.  Every
        // prediction is identical by the determinism contract, and
        // checked here; what changes is requests per second.
        std::cout << "\nthroughput mode: " << instances
                  << " instance lanes, one shared deployment\n";
        using clock = std::chrono::steady_clock;
        const std::vector<Sample> &samples = test.samples;
        auto accuracy = [&](const std::vector<uint32_t> &preds) {
            size_t correct = 0;
            for (size_t i = 0; i < preds.size(); ++i)
                correct += preds[i] == samples[i].label;
            return static_cast<double>(correct) /
                static_cast<double>(preds.size());
        };

        auto s0 = clock::now();
        std::vector<uint32_t> seq_preds;
        for (const Sample &s : samples) {
            SpikingClassifier one(qm, opt);
            seq_preds.push_back(one.classify(s));
        }
        auto s1 = clock::now();
        double seq_s =
            std::chrono::duration<double>(s1 - s0).count();
        double seq_rate = seq_s > 0.0 ? samples.size() / seq_s : 0.0;

        ClassifierOptions bopt = opt;
        bopt.instances = instances;
        auto b0 = clock::now();
        SpikingClassifier batched(qm, bopt);
        std::vector<uint32_t> bat_preds;
        for (size_t i = 0; i < samples.size(); i += instances) {
            const std::vector<Sample> batch(
                samples.begin() + static_cast<ptrdiff_t>(i),
                samples.begin() + static_cast<ptrdiff_t>(
                    std::min<size_t>(i + instances, samples.size())));
            for (uint32_t p : batched.classifyBatch(batch))
                bat_preds.push_back(p);
        }
        auto b1 = clock::now();
        double bat_s =
            std::chrono::duration<double>(b1 - b0).count();
        double bat_rate = bat_s > 0.0 ? samples.size() / bat_s : 0.0;

        TextTable tp({"mode", "accuracy", "req/s"});
        tp.addRow({"deploy-per-request (B=1)",
                   fmtF(100 * accuracy(seq_preds), 1) + "%",
                   fmtF(seq_rate, 1)});
        tp.addRow({"batched (B=" + std::to_string(instances) + ")",
                   fmtF(100 * accuracy(bat_preds), 1) + "%",
                   fmtF(bat_rate, 1)});
        std::cout << tp.str();
        size_t diverged = 0;
        for (size_t i = 0; i < samples.size(); ++i) {
            if (bat_preds[i] == seq_preds[i])
                continue;
            if (diverged++ == 0)
                std::cerr << "sample " << i << ": batched predicts "
                          << bat_preds[i] << ", deploy-per-request "
                          << seq_preds[i] << "\n";
        }
        if (diverged) {
            std::cerr << "ERROR: " << diverged << " of " << samples.size()
                      << " batched predictions differ from "
                         "deploy-per-request — determinism contract "
                         "broken\n";
            return 1;
        }
    }
    return 0;
}
