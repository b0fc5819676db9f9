/**
 * @file
 * nscs_faultsim — Monte-Carlo fault-injection campaign driver.
 *
 * Runs the synthetic cortical workload N times, each against a fresh
 * randomly generated fault plan (seeded, so the whole campaign is
 * reproducible), and compares every faulty spike trace with the
 * fault-free reference to quantify graceful degradation: output
 * accuracy, recovery behavior (rollbacks, replayed ticks, recovery
 * latency) and the fault bookkeeping counters.
 *
 * Usage:
 *   nscs_faultsim [options]
 *
 * Options:
 *   --grid WxH            core grid (default 4x4)
 *   --board WxH           shard onto a board of chips (default 1x1 =
 *                         one chip; must tile the core grid)
 *   --ticks N             simulated ticks per run (default 120)
 *   --runs N              campaign size (default 10)
 *   --seed S              base seed; run r uses S + r (default 1)
 *   --dead-cores N        permanent dead-core faults per run
 *   --stuck-words N       stuck-at crossbar word faults per run
 *   --seu N               transient potential bit flips per run
 *   --link-drops N        transient link drop windows per run
 *   --link-dups N         transient link duplicate windows per run
 *   --link-delays N       link delay windows per run
 *   --dead-links N        permanent dead-link faults per run
 *   --checkpoint-every N  checkpoint interval (0 = no recovery)
 *   --reliable            protocol-protected inter-chip links
 *   --out FILE            write the JSON report here (default stdout)
 *
 * Accuracy is the (tick, line) multiset overlap between the faulty
 * and fault-free traces: |intersection| / max(|ref|, |faulty|), 1.0
 * when the degraded run is bit-identical.  Exit status 0 once the
 * campaign completes; the report is data, not a gate.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.hh"
#include "runtime/fault.hh"
#include "runtime/simulator.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace nscs;

namespace {

void
usage()
{
    std::cerr <<
        "usage: nscs_faultsim [--grid WxH] [--board WxH] [--ticks N]\n"
        "                     [--runs N] [--seed S] [--dead-cores N]\n"
        "                     [--stuck-words N] [--seu N]\n"
        "                     [--link-drops N] [--link-dups N]\n"
        "                     [--link-delays N] [--dead-links N]\n"
        "                     [--checkpoint-every N] [--reliable]\n"
        "                     [--out FILE]\n";
    std::exit(2);
}

/** Store @p v, a count in [0, @p limit], in @p out; anything else is
 *  a usage error. */
template <typename T>
void
countArg(const std::string &v, uint64_t limit, T &out)
{
    uint64_t n = 0;
    if (!parseCount(v, limit, n))
        usage();
    out = static_cast<T>(n);
}

/** (tick, line) multiset overlap: |a ∩ b| / max(|a|, |b|). */
double
traceAccuracy(std::vector<OutputSpike> a, std::vector<OutputSpike> b)
{
    if (a.empty() && b.empty())
        return 1.0;
    auto lt = [](const OutputSpike &x, const OutputSpike &y) {
        return x.tick != y.tick ? x.tick < y.tick : x.line < y.line;
    };
    std::sort(a.begin(), a.end(), lt);
    std::sort(b.begin(), b.end(), lt);
    size_t i = 0, j = 0, common = 0;
    while (i < a.size() && j < b.size()) {
        if (lt(a[i], b[j]))
            ++i;
        else if (lt(b[j], a[i]))
            ++j;
        else {
            ++common;
            ++i;
            ++j;
        }
    }
    return static_cast<double>(common) /
           static_cast<double>(std::max(a.size(), b.size()));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint32_t grid_w = 4, grid_h = 4;
    uint32_t board_w = 1, board_h = 1;
    uint64_t ticks = 120, runs = 10, seed = 1;
    uint64_t checkpoint_every = 0;
    bool reliable = false;
    std::string out_path;
    FaultCampaignSpec spec;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--grid") {
            if (!parseGridSpec(next(), grid_w, grid_h))
                usage();
        } else if (arg == "--board") {
            if (!parseGridSpec(next(), board_w, board_h))
                usage();
        } else if (arg == "--ticks") {
            countArg(next(), INT64_MAX, ticks);
        } else if (arg == "--runs") {
            countArg(next(), UINT32_MAX, runs);
        } else if (arg == "--seed") {
            countArg(next(), UINT64_MAX, seed);
        } else if (arg == "--dead-cores") {
            countArg(next(), UINT32_MAX, spec.nDeadCore);
        } else if (arg == "--stuck-words") {
            countArg(next(), UINT32_MAX, spec.nStuckWord);
        } else if (arg == "--seu") {
            countArg(next(), UINT32_MAX, spec.nSeu);
        } else if (arg == "--link-drops") {
            countArg(next(), UINT32_MAX, spec.nLinkDrop);
        } else if (arg == "--link-dups") {
            countArg(next(), UINT32_MAX, spec.nLinkDup);
        } else if (arg == "--link-delays") {
            countArg(next(), UINT32_MAX, spec.nLinkDelay);
        } else if (arg == "--dead-links") {
            countArg(next(), UINT32_MAX, spec.nDeadLink);
        } else if (arg == "--checkpoint-every") {
            countArg(next(), INT64_MAX, checkpoint_every);
        } else if (arg == "--reliable") {
            reliable = true;
        } else if (arg == "--out") {
            out_path = next();
        } else {
            usage();
        }
    }
    if (ticks == 0 || runs == 0 || grid_w == 0 || grid_h == 0)
        usage();
    bool board_mode = board_w * board_h > 1;
    if (board_mode &&
        (grid_w % board_w != 0 || grid_h % board_h != 0))
        fatal("board %ux%u does not tile the %ux%u core grid",
              board_w, board_h, grid_w, grid_h);
    if (!board_mode &&
        (spec.nLinkDrop || spec.nLinkDup || spec.nLinkDelay ||
         spec.nDeadLink))
        fatal("link faults need a board target (--board WxH)");

    spec.ticks = ticks;
    spec.numCores = grid_w * grid_h;
    spec.boardW = board_w;
    spec.boardH = board_h;
    CoreGeometry geom;
    spec.numAxons = geom.numAxons;
    spec.numNeurons = geom.numNeurons;

    LinkParams link;
    link.reliable = reliable;

    bench::CorticalWorkload w = bench::tappedWorkload(grid_w, grid_h, seed);
    auto makeSim = [&](std::shared_ptr<const FaultPlan> plan) {
        return board_mode
            ? bench::makeCorticalBoardSim(w, EngineKind::Event,
                                          board_w, board_h, 0, link,
                                          0, std::move(plan))
            : bench::makeCorticalSim(w, EngineKind::Event,
                                     NocModel::Functional, 0,
                                     std::move(plan));
    };

    auto ref = makeSim(nullptr);
    ref->run(ticks);
    const std::vector<OutputSpike> &refSpikes =
        ref->recorder().spikes();

    JsonValue runsOut = JsonValue::array();
    double accSum = 0.0, accMin = 1.0;
    uint64_t identical = 0, rollbacks = 0, replayed = 0;
    uint64_t unrecoveredAlarms = 0, maxLatency = 0;
    for (uint64_t r = 0; r < runs; ++r) {
        auto plan = std::make_shared<const FaultPlan>(
            makeRandomFaultPlan(spec, seed + r));
        auto sim = makeSim(plan);
        sim->setCheckpointInterval(checkpoint_every);
        sim->run(ticks);

        double acc = traceAccuracy(refSpikes,
                                   sim->recorder().spikes());
        const RecoveryStats &rs = sim->recoveryStats();
        const FaultStats fs = board_mode
            ? sim->board().faultStats()
            : sim->chip().faultStats();

        accSum += acc;
        accMin = std::min(accMin, acc);
        identical += sim->recorder().spikes() == refSpikes ? 1 : 0;
        rollbacks += rs.rollbacks;
        replayed += rs.replayedTicks;
        unrecoveredAlarms += rs.unrecoveredAlarms;
        maxLatency = std::max(maxLatency, rs.maxRecoveryLatencyTicks);

        JsonValue row = JsonValue::object();
        row.set("seed", JsonValue::integer(
            static_cast<int64_t>(seed + r)));
        row.set("accuracy", JsonValue::number(acc));
        row.set("spikes", JsonValue::integer(
            static_cast<int64_t>(sim->recorder().size())));
        row.set("recovery", countersToJson(rs, kRecoveryStatsFields));
        row.set("faults", countersToJson(fs, kFaultStatsFields));
        runsOut.append(std::move(row));
    }

    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::string("nscs-faultsim"));
    doc.set("version", JsonValue::integer(1));
    JsonValue cfg = JsonValue::object();
    cfg.set("gridW", JsonValue::integer(grid_w));
    cfg.set("gridH", JsonValue::integer(grid_h));
    cfg.set("boardW", JsonValue::integer(board_w));
    cfg.set("boardH", JsonValue::integer(board_h));
    cfg.set("ticks", JsonValue::integer(static_cast<int64_t>(ticks)));
    cfg.set("runs", JsonValue::integer(static_cast<int64_t>(runs)));
    cfg.set("seed", JsonValue::integer(static_cast<int64_t>(seed)));
    cfg.set("checkpointEvery", JsonValue::integer(
        static_cast<int64_t>(checkpoint_every)));
    cfg.set("reliable", JsonValue::boolean(reliable));
    cfg.set("deadCores", JsonValue::integer(spec.nDeadCore));
    cfg.set("stuckWords", JsonValue::integer(spec.nStuckWord));
    cfg.set("seu", JsonValue::integer(spec.nSeu));
    cfg.set("linkDrops", JsonValue::integer(spec.nLinkDrop));
    cfg.set("linkDups", JsonValue::integer(spec.nLinkDup));
    cfg.set("linkDelays", JsonValue::integer(spec.nLinkDelay));
    cfg.set("deadLinks", JsonValue::integer(spec.nDeadLink));
    doc.set("campaign", std::move(cfg));
    JsonValue summary = JsonValue::object();
    summary.set("referenceSpikes", JsonValue::integer(
        static_cast<int64_t>(refSpikes.size())));
    summary.set("meanAccuracy", JsonValue::number(
        accSum / static_cast<double>(runs)));
    summary.set("minAccuracy", JsonValue::number(accMin));
    summary.set("bitIdenticalRuns", JsonValue::integer(
        static_cast<int64_t>(identical)));
    summary.set("rollbacks", JsonValue::integer(
        static_cast<int64_t>(rollbacks)));
    summary.set("replayedTicks", JsonValue::integer(
        static_cast<int64_t>(replayed)));
    summary.set("unrecoveredAlarms", JsonValue::integer(
        static_cast<int64_t>(unrecoveredAlarms)));
    summary.set("maxRecoveryLatencyTicks", JsonValue::integer(
        static_cast<int64_t>(maxLatency)));
    doc.set("summary", std::move(summary));
    doc.set("runs", std::move(runsOut));

    std::string text = doc.dump(2) + "\n";
    if (out_path.empty()) {
        std::cout << text;
    } else {
        if (!writeFile(out_path, text))
            fatal("cannot write report '%s'", out_path.c_str());
        std::cout << "wrote " << out_path << " (mean accuracy "
                  << accSum / static_cast<double>(runs) << ", "
                  << identical << "/" << runs
                  << " bit-identical runs)\n";
    }
    return 0;
}
