/**
 * @file
 * nscs_run — execute a compiled model file against an input spike
 * schedule and emit the output spike trace.
 *
 * Usage:
 *   nscs_run MODEL.json TICKS [options]
 *
 * Options:
 *   --engine clock|event      which cores run each tick: every
 *                             core (clock) or only cores with
 *                             parked spikes or a due wake (event,
 *                             the default); one core tick path and
 *                             bit-identical output either way
 *   --noc functional|cycle    spike transport (default functional;
 *                             board targets require functional)
 *   --threads N               worker lanes (default 0 = serial;
 *                             board targets parallelise across
 *                             chips, chip targets across cores;
 *                             output is bit-identical either way)
 *   --instances B             run B replica instances of the model
 *                             through the shared crossbars (default
 *                             1; requires the functional transport).
 *                             The input schedule drives lane 0; the
 *                             trace's third column names the lane
 *   --board WxH               deploy onto a WxH board of chips
 *                             (default: the model's compiled board
 *                             target; 1x1 = one chip).  Grids that
 *                             do not tile evenly are padded with
 *                             empty cores.
 *   --link-budget N           link packets per tick (0 = unlimited)
 *   --link-delay N            extra transit ticks per link hop
 *   --link-queue N            stalled packets per link (0 = unlim.)
 *   --link-coalesce N         batch up to N same-destination spikes
 *                             into one fabric packet (0/1 = off)
 *   --trace-traffic FILE      write the measured traffic profile
 *                             (per-chip-pair and per-link loads)
 *                             after a board run
 *   --traffic-profile FILE    weigh the route table's links by a
 *                             measured profile's congestion instead
 *                             of hop count
 *   --inputs FILE             input schedule: lines "tick inputName"
 *   --trace FILE              write the output trace here
 *   --stats                   write the device's stats document
 *                             (JSON, format "nscs-stats": its
 *                             counters, energy and, with
 *                             --checkpoint-every, recovery, plus
 *                             the host-timed run.ticksPerSecond)
 *                             to stderr
 *   --fault-plan FILE         inject the nscs-fault-plan document
 *   --checkpoint-every N      checkpoint every N ticks; detected
 *                             transient faults roll back and replay
 *   --save-state FILE         write a snapshot after the run
 *   --restore FILE            restore a snapshot before the run
 *                             (model/engine/board must match it)
 *
 * The input schedule fires the named input line (all its compiled
 * injection targets) at the given tick.  Exit status 0 on success.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "board/traffic.hh"
#include "prog/compiled.hh"
#include "runtime/fault.hh"
#include "runtime/simulator.hh"
#include "runtime/trace.hh"
#include "util/logging.hh"

using namespace nscs;

namespace {

void
usage()
{
    std::cerr <<
        "usage: nscs_run MODEL.json TICKS [--engine clock|event]\n"
        "                [--noc functional|cycle] [--threads N]\n"
        "                [--instances B]\n"
        "                [--board WxH] [--link-budget N]\n"
        "                [--link-delay N] [--link-queue N]\n"
        "                [--link-coalesce N] [--trace-traffic FILE]\n"
        "                [--traffic-profile FILE]\n"
        "                [--inputs FILE] [--trace FILE] [--stats]\n"
        "                [--fault-plan FILE] [--checkpoint-every N]\n"
        "                [--save-state FILE] [--restore FILE]\n";
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

/**
 * Grow the model's grid to multiples of the board dimensions with
 * empty cores, remapping the row-major input targets.  Relative
 * destinations survive: every populated core keeps its (x, y).
 */
void
padModelToBoard(CompiledModel &model, uint32_t bw, uint32_t bh)
{
    uint32_t nw = (model.gridWidth + bw - 1) / bw * bw;
    uint32_t nh = (model.gridHeight + bh - 1) / bh * bh;
    if (nw == model.gridWidth && nh == model.gridHeight)
        return;
    std::vector<CoreConfig> cells;
    cells.reserve(static_cast<size_t>(nw) * nh);
    for (uint32_t y = 0; y < nh; ++y) {
        for (uint32_t x = 0; x < nw; ++x) {
            if (x < model.gridWidth && y < model.gridHeight)
                cells.push_back(std::move(
                    model.cores[y * model.gridWidth + x]));
            else
                cells.push_back(CoreConfig::make(model.geom));
        }
    }
    for (auto &kv : model.inputs) {
        for (InputSpike &t : kv.second) {
            uint32_t x = t.core % model.gridWidth;
            uint32_t y = t.core / model.gridWidth;
            t.core = y * nw + x;
        }
    }
    model.cores = std::move(cells);
    model.gridWidth = nw;
    model.gridHeight = nh;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    std::string model_path = argv[1];
    uint64_t ticks = 0;
    countArg(argv[2], INT64_MAX, ticks);

    EngineKind engine = EngineKind::Event;
    NocModel noc = NocModel::Functional;
    uint32_t threads = 0;
    uint32_t instances = 1;
    uint32_t board_w = 0, board_h = 0;  // 0 = model default
    LinkParams link;
    std::string inputs_path, trace_path;
    std::string trace_traffic_path, profile_path;
    std::string plan_path, save_path, restore_path;
    uint64_t checkpoint_every = 0;
    bool stats = false;

    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--engine") {
            std::string v = next();
            if (v == "clock")
                engine = EngineKind::Clock;
            else if (v == "event")
                engine = EngineKind::Event;
            else
                usage();
        } else if (arg == "--noc") {
            std::string v = next();
            if (v == "functional")
                noc = NocModel::Functional;
            else if (v == "cycle")
                noc = NocModel::Cycle;
            else
                usage();
        } else if (arg == "--threads") {
            countArg(next(), 1024, threads);
        } else if (arg == "--instances") {
            countArg(next(), 1u << 16, instances);
            if (instances == 0)
                usage();
        } else if (arg == "--board") {
            if (!parseGridSpec(next(), board_w, board_h))
                usage();
        } else if (arg == "--link-budget") {
            countArg(next(), 1u << 30, link.packetsPerTick);
        } else if (arg == "--link-delay") {
            countArg(next(), 1u << 20, link.extraDelay);
        } else if (arg == "--link-queue") {
            countArg(next(), 1u << 30, link.queueCapacity);
        } else if (arg == "--link-coalesce") {
            countArg(next(), 1u << 16, link.coalesce);
        } else if (arg == "--trace-traffic") {
            trace_traffic_path = next();
        } else if (arg == "--traffic-profile") {
            profile_path = next();
        } else if (arg == "--inputs") {
            inputs_path = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--fault-plan") {
            plan_path = next();
        } else if (arg == "--checkpoint-every") {
            countArg(next(), 1u << 30, checkpoint_every);
        } else if (arg == "--save-state") {
            save_path = next();
        } else if (arg == "--restore") {
            restore_path = next();
        } else {
            usage();
        }
    }

    CompiledModel model;
    if (!loadCompiledModel(model_path, model))
        fatal("cannot load model file '%s'", model_path.c_str());
    if (board_w == 0) {
        board_w = model.boardWidth;
        board_h = model.boardHeight;
    }
    bool board_mode = board_w * board_h > 1;
    if (board_mode) {
        if (noc == NocModel::Cycle)
            fatal("board targets require the functional transport");
        padModelToBoard(model, board_w, board_h);
    } else if (!trace_traffic_path.empty() || !profile_path.empty()) {
        fatal("--trace-traffic/--traffic-profile need a board target "
              "(use --board WxH or a board-compiled model)");
    }

    std::shared_ptr<const TrafficProfile> profile;
    if (!profile_path.empty()) {
        TrafficProfile tp;
        std::string err;
        if (!loadTrafficProfile(profile_path, tp, &err))
            fatal("cannot load traffic profile '%s': %s",
                  profile_path.c_str(), err.c_str());
        profile = std::make_shared<const TrafficProfile>(std::move(tp));
    }

    std::vector<ScheduledInput> schedule;
    if (!inputs_path.empty()) {
        std::string text, err;
        if (!readFile(inputs_path, text))
            fatal("cannot read input schedule '%s'",
                  inputs_path.c_str());
        if (!parseInputSchedule(text, schedule, err))
            fatal("%s: %s", inputs_path.c_str(), err.c_str());
    }

    std::shared_ptr<const FaultPlan> plan;
    if (!plan_path.empty()) {
        FaultPlan loaded;
        std::string err;
        if (!loadFaultPlan(plan_path, loaded, err))
            fatal("%s", err.c_str());
        plan = std::make_shared<const FaultPlan>(std::move(loaded));
    }

    std::unique_ptr<Simulator> sim;
    if (board_mode) {
        BoardParams bp;
        bp.width = board_w;
        bp.height = board_h;
        bp.chip.width = model.gridWidth / board_w;
        bp.chip.height = model.gridHeight / board_h;
        bp.chip.coreGeom = model.geom;
        bp.chip.engine = engine;
        bp.chip.instances = instances;
        bp.link = link;
        bp.threads = threads;
        bp.faultPlan = plan;
        bp.traceTraffic = !trace_traffic_path.empty();
        bp.trafficProfile = profile;
        sim = std::make_unique<Simulator>(bp, model.cores);
    } else {
        ChipParams cp;
        cp.width = model.gridWidth;
        cp.height = model.gridHeight;
        cp.coreGeom = model.geom;
        cp.engine = engine;
        cp.noc = noc;
        cp.instances = instances;
        cp.threads = threads;
        cp.faultPlan = plan;
        sim = std::make_unique<Simulator>(cp, model.cores);
    }

    auto source = std::make_unique<ScheduleSource>();
    for (const ScheduledInput &in : schedule)
        for (const InputSpike &target : model.inputTargets(in.name))
            source->add(in.tick, target);
    sim->addSource(std::move(source));

    sim->setCheckpointInterval(checkpoint_every);
    if (!restore_path.empty()) {
        std::string err;
        if (!sim->restoreStateFile(restore_path, &err))
            fatal("cannot restore '%s': %s", restore_path.c_str(),
                  err.c_str());
    }

    RunPerf perf = sim->run(ticks);

    if (!save_path.empty()) {
        std::string err;
        if (!sim->saveStateFile(save_path, &err))
            fatal("cannot save state to '%s': %s", save_path.c_str(),
                  err.c_str());
    }

    if (!trace_traffic_path.empty() &&
        !saveTrafficProfile(trace_traffic_path,
                            sim->board().trafficProfile()))
        fatal("cannot write traffic profile '%s'",
              trace_traffic_path.c_str());

    const auto &spikes = sim->recorder().spikes();
    if (trace_path.empty()) {
        std::cout << formatSpikeTrace(spikes);
    } else if (!writeSpikeTrace(trace_path, spikes)) {
        fatal("cannot write trace '%s'", trace_path.c_str());
    }

    if (stats) {
        JsonValue doc = board_mode ? sim->board().stats()
                                   : sim->chip().stats();
        JsonValue run = JsonValue::object();
        run.set("ticksPerSecond", JsonValue::number(perf.ticksPerSecond()));
        doc.set("run", std::move(run));
        if (checkpoint_every != 0)
            doc.set("recovery", countersToJson(sim->recoveryStats(),
                                               kRecoveryStatsFields));
        std::cerr << doc.dump(2) << "\n";
    }
    return 0;
}
