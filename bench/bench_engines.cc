/**
 * @file
 * Ablation A2 — execution-engine comparison.
 *
 * Both engines run the same core tick path (Core::tickDense: settle
 * any skipped ticks, integrate, update every neuron); they differ
 * only in the wake rule.  Clock wakes every core every tick.  Event
 * wakes a core when spikes are parked for the tick or its wake tick
 * has come (a per-tick-stochastic neuron, or a fire due without
 * input), and the woken core settles the ticks it skipped with the
 * closed-form leak fast-forward.  Sweeps the activity level at a
 * fixed chip size and reports the wall-clock advantage and the
 * evaluation counts that explain it.
 *
 * Expected shape: the event engine's advantage is largest at sparse
 * activity, where whole cores idle, and falls to parity once every
 * core is woken every tick, because a woken core costs what it
 * costs under Clock.
 *
 * A second sweep (A2b) times the serial tick engine against the
 * multi-threaded one (ChipParams::threads >= 2) on a 64-core chip at
 * busy activity.  It is an unchecked, timing-only row: on a shared
 * 4-vCPU host it has read anywhere from 0.30x to 1.20x of serial at
 * 2-8 threads, run to run, so it claims no scaling; whether the
 * parallel engines earn their keep is ROADMAP item 7.  Spike output
 * is bit-identical by construction; only wall clock changes.  A third
 * (A2c) runs the scalar and the batched integrate path.
 *
 * Checked shape, on counts only (the times are printed, not
 * checked): the engines' outputs agree, Event's evaluations and core
 * activations rise with rate, Event evaluates under 1/50 of what
 * Clock does at 0.1 Hz and exactly as much at 100 Hz, and the scalar
 * and batched integrate paths of A2c count the same synaptic events,
 * all of them batched.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/shape.hh"
#include "bench/workload.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

int
main()
{
    std::cout <<
        "== A2: clock vs event execution engines ==\n"
        "(shape target: event >> clock at sparse activity;\n"
        " advantage shrinks with load.  The engines alternate over\n"
        " repeated chunks of the same ticks, the first engine swapping\n"
        " each chunk, so host drift cancels; speedup is per chunk)\n\n";

    const uint64_t chunks = 10;
    const uint64_t chunkTicks = 50;

    /** One rate's counts. */
    struct Row
    {
        double hz;
        bool sameOutput;
        uint64_t clockEvals, eventEvals, activations;
    };
    std::vector<Row> rows;
    TextTable t({"rate(Hz)", "clock ticks/s", "event ticks/s",
                 "event evals", "event activations", "speedup med",
                 "speedup min-max"});

    for (double rate : {0.0001, 0.001, 0.01, 0.05, 0.1}) {
        CorticalParams wp;
        wp.gridW = wp.gridH = 16;
        wp.density = 128;
        wp.ratePerTick = rate;
        wp.seed = 9;
        CorticalWorkload w = makeCortical(wp);
        auto clock = makeCorticalSim(w, EngineKind::Clock);
        auto event = makeCorticalSim(w, EngineKind::Event);

        double clock_s = 0, event_s = 0;
        std::vector<double> speedups;
        for (uint64_t c = 0; c < chunks; ++c) {
            double cs = 0, es = 0;
            if (c % 2 == 0) {
                cs = clock->run(chunkTicks).seconds;
                es = event->run(chunkTicks).seconds;
            } else {
                es = event->run(chunkTicks).seconds;
                cs = clock->run(chunkTicks).seconds;
            }
            clock_s += cs;
            event_s += es;
            speedups.push_back(cs / es);
        }
        std::sort(speedups.begin(), speedups.end());
        const double med =
            (speedups[chunks / 2 - 1] + speedups[chunks / 2]) / 2;

        const uint64_t evals = event->chip().coreCounters().evals;
        rows.push_back({rate * 1000,
                        clock->recorder().spikes() ==
                            event->recorder().spikes(),
                        clock->chip().coreCounters().evals, evals,
                        event->chip().counters().coreActivations});
        const double ticks = static_cast<double>(chunks * chunkTicks);
        t.addRow({fmtF(rate * 1000, 2),
                  fmtF(ticks / clock_s, 1),
                  fmtF(ticks / event_s, 1),
                  fmtInt(evals),
                  fmtInt(rows.back().activations),
                  fmtF(med, 2) + "x",
                  fmtF(speedups.front(), 2) + "-" +
                      fmtF(speedups.back(), 2) + "x"});
    }
    std::cout << t.str();

    std::cout <<
        "\n== A2b: serial vs parallel tick engine ==\n"
        "(64-core chip, busy activity; timing only, not checked: the\n"
        " speedup spreads widely on a shared host, and whether the\n"
        " parallel engines win is ROADMAP item 7)\n\n";

    TextTable p({"engine", "threads", "ticks/s", "speedup"});
    const uint64_t pticks = 200;
    double serial_tps = 0;
    for (uint32_t threads : {0u, 2u, 4u, 8u}) {
        CorticalParams wp;
        wp.gridW = wp.gridH = 8;
        wp.density = 128;
        wp.ratePerTick = 0.05;
        wp.seed = 9;
        CorticalWorkload w = makeCortical(wp);
        auto sim = makeCorticalSim(w, EngineKind::Clock,
                                   NocModel::Functional, threads);
        RunPerf perf = sim->run(pticks);
        double tps = perf.ticksPerSecond();
        if (threads == 0)
            serial_tps = tps;
        p.addRow({threads == 0 ? "serial" : "parallel",
                  fmtInt(threads),
                  fmtF(tps, 1),
                  fmtF(tps / serial_tps, 2) + "x"});
    }
    std::cout << p.str();

    std::cout <<
        "\n== A2c: scalar vs batched synaptic integration ==\n"
        "(64-core chip, busy activity, serial clock engine; shape\n"
        " target: the batched count-lane gear wins where integrate\n"
        " dominates)\n\n";

    TextTable q({"integrate", "ticks/s", "sops", "hit rate", "speedup"});
    double scalar_tps = 0;
    CoreCounters counts[2];  // scalar, batched
    for (bool fast : {false, true}) {
        CorticalParams wp;
        wp.gridW = wp.gridH = 8;
        wp.density = 128;
        // Dense activity: half the driven axons fire per tick.
        wp.ratePerTick = 0.5;
        wp.seed = 9;
        CorticalWorkload w = makeCortical(wp);
        auto sim = makeCorticalSim(w, EngineKind::Clock);
        // The scalar run sends every slot to the reference path.
        if (!fast)
            for (uint32_t c = 0; c < sim->chip().numCores(); ++c)
                sim->chip().core(c).setPaths(
                    {.batchedIntegrate = false, .batchedUpdate = true});
        RunPerf perf = sim->run(pticks);

        const CoreCounters &cc = counts[fast] =
            sim->chip().coreCounters();
        const uint64_t sops = cc.sops, batched = cc.sopsBatched;
        double tps = perf.ticksPerSecond();
        if (!fast)
            scalar_tps = tps;
        double hit = sops ? static_cast<double>(batched) / sops : 0.0;
        q.addRow({fast ? "batched" : "scalar",
                  fmtF(tps, 1),
                  fmtInt(sops),
                  fast ? fmtF(hit * 100, 1) + "%" : "-",
                  fmtF(tps / scalar_tps, 2) + "x"});
    }
    std::cout << q.str();

    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const std::string at = " at " + fmtF(r.hz, 2) + " Hz";
        shapeCheck(r.sameOutput, "clock and event outputs differ" + at);
        // Counts are deterministic: evaluations read 404,224 at
        // 0.1 Hz up to 32,768,000 at 100 Hz, and activations 1,579 up
        // to 128,000, each strictly rising.
        shapeCheck(i == 0 || (r.eventEvals > rows[i - 1].eventEvals &&
                              r.activations > rows[i - 1].activations),
                   "event evaluations or activations do not rise" + at);
    }
    // Sparse: 404,224 evaluations against Clock's 32,768,000 at
    // 0.1 Hz, 1/81; checked at 1/50.
    const Row &sparse = rows.front();
    shapeCheck(sparse.eventEvals * 50 < sparse.clockEvals,
               "event evaluates " + fmtInt(sparse.eventEvals) +
               " neurons at 0.1 Hz, not under 1/50 of clock's " +
               fmtInt(sparse.clockEvals));
    // Busy: every core is woken every tick, so Event evaluates what
    // Clock does.
    const Row &busy = rows.back();
    shapeCheck(busy.eventEvals == busy.clockEvals,
               "event evaluates " + fmtInt(busy.eventEvals) +
               " neurons at 100 Hz, not clock's " +
               fmtInt(busy.clockEvals));
    shapeCheck(counts[1].sops == counts[0].sops &&
                   counts[1].sopsBatched == counts[1].sops,
               "A2c: scalar counts " + fmtInt(counts[0].sops) +
               " sops, batched " + fmtInt(counts[1].sops) + " with " +
               fmtInt(counts[1].sopsBatched) + " batched");
    return shapeOk();
}
