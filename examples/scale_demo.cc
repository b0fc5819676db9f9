/**
 * @file
 * Scale demonstration: a 32x32-core fabric (262,144 neurons, ~8.4M
 * populated synapses) running the synthetic cortical workload at
 * 20 Hz, with throughput, activity and energy reporting.
 *
 *   build/examples/scale_demo [gridSide] [ticks] [--board WxH]
 *                             [--threads N]
 *
 * With --board the same global core grid is sharded across a WxH
 * grid of chips joined by inter-chip links (gridSide must divide
 * evenly); --threads evaluates chips across worker lanes.  Output is
 * bit-identical to the single-chip run in every configuration.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench/workload.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

namespace {

[[noreturn]] void
usage()
{
    std::cerr << "usage: scale_demo [gridSide] [ticks] [--board WxH] "
                 "[--threads N]\n";
    std::exit(2);
}

/** @return argument @p text as a count in [@p lo, @p hi]; anything
 *  else is a usage error. */
uint64_t
countArg(const char *text, uint64_t lo, uint64_t hi)
{
    uint64_t v = 0;
    if (!parseCount(text, hi, v) || v < lo)
        usage();
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t side = 32;
    uint64_t ticks = 100;
    uint32_t board_w = 1, board_h = 1;
    uint32_t threads = 0;
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--board") == 0 && i + 1 < argc) {
            if (!parseGridSpec(argv[++i], board_w, board_h))
                usage();
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            // nscs_run's bound on worker lanes.
            threads = static_cast<uint32_t>(countArg(argv[++i], 0, 1024));
        } else if (pos == 0) {
            // 9-bit packet offsets address at most 256 cores a side.
            side = static_cast<uint32_t>(countArg(argv[i], 1, 256));
            ++pos;
        } else if (pos == 1) {
            ticks = countArg(argv[i], 1, INT64_MAX);
            ++pos;
        } else {
            std::cerr << "unexpected argument '" << argv[i] << "'\n";
            usage();
        }
    }
    const bool board_mode = board_w * board_h > 1;
    if (board_mode && (side % board_w || side % board_h)) {
        std::cerr << "grid side " << side << " does not tile a "
                  << board_w << "x" << board_h << " board\n";
        return 2;
    }

    CorticalParams wp;
    wp.gridW = wp.gridH = side;
    wp.density = 128;
    wp.ratePerTick = 0.02;
    wp.seed = 2025;

    std::cout << "building " << side << "x" << side << " core grid ("
              << side * side * 256 << " neurons)";
    if (board_mode)
        std::cout << " sharded across " << board_w << "x" << board_h
                  << " chips";
    std::cout << "...\n";
    CorticalWorkload w = makeCortical(wp);
    auto sim = board_mode
        ? makeCorticalBoardSim(w, EngineKind::Event, board_w, board_h,
                               threads)
        : makeCorticalSim(w, EngineKind::Event,
                          NocModel::Functional, threads);
    size_t footprint = board_mode ? sim->board().footprintBytes()
                                  : sim->chip().footprintBytes();
    std::cout << "model footprint: " << fmtBytes(footprint) << "\n";

    std::cout << "running " << ticks << " ticks...\n\n";
    RunPerf perf = sim->run(ticks);

    EnergyEvents e = board_mode ? sim->board().energyEvents()
                                : sim->chip().energyEvents();
    EnergyBreakdown b = board_mode ? sim->board().energy()
                                   : sim->chip().energy();

    TextTable t({"metric", "value"});
    if (board_mode) {
        t.addRow({"chips", fmtInt(sim->board().numChips())});
        t.addRow({"worker lanes", fmtInt(threads)});
    }
    t.addRow({"cores", fmtInt(e.cores)});
    t.addRow({"neurons", fmtInt(e.neurons)});
    t.addRow({"ticks simulated", fmtInt(ticks)});
    t.addRow({"wall-clock", fmtF(perf.seconds, 3) + " s"});
    t.addRow({"throughput", fmtF(perf.ticksPerSecond(), 1)
              + " ticks/s"});
    t.addRow({"real-time factor (1 ms ticks)",
              fmtF(perf.realTimeFactor(), 2) + "x"});
    t.addRow({"synaptic events", fmtInt(e.sops)});
    t.addRow({"SOP throughput",
              fmtSi(static_cast<double>(e.sops) / perf.seconds,
                    "SOPs/s")});
    t.addRow({"spikes", fmtInt(e.spikes)});
    if (board_mode) {
        const BoardCounters &bc = sim->board().counters();
        t.addRow({"inter-chip spikes", fmtInt(bc.egressSpikes)});
        t.addRow({"link traversals", fmtInt(bc.linkPackets)});
        t.addRow({"link stalls", fmtInt(bc.linkStalls)});
    }
    t.addRow({"modelled chip power",
              fmtF(averagePowerW(b, e, EnergyParams{}) * 1e3, 2) + " mW"});
    t.addRow({"modelled energy/SOP",
              fmtF(energyPerSopJ(b, e) * 1e12, 1) + " pJ"});
    std::cout << t.str();
    return 0;
}
