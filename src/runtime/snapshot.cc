#include "runtime/snapshot.hh"

#include <utility>

#include "runtime/simulator.hh"

namespace nscs {

namespace {

const char *
engineName(EngineKind engine)
{
    return engine == EngineKind::Clock ? "clock" : "event";
}

SnapshotStatus
failStatus(std::string error)
{
    return {false, std::move(error)};
}

/** Static shape of the simulated device, for restore validation. */
JsonValue
geometryJson(const Simulator &sim)
{
    JsonValue g = JsonValue::object();
    const CoreGeometry &geom = sim.isBoard()
        ? sim.board().params().chip.coreGeom
        : sim.chip().params().coreGeom;
    if (sim.isBoard()) {
        const BoardParams &bp = sim.board().params();
        g.set("boardWidth", JsonValue::integer(bp.width));
        g.set("boardHeight", JsonValue::integer(bp.height));
        g.set("chipWidth", JsonValue::integer(bp.chip.width));
        g.set("chipHeight", JsonValue::integer(bp.chip.height));
    } else {
        const ChipParams &cp = sim.chip().params();
        g.set("chipWidth", JsonValue::integer(cp.width));
        g.set("chipHeight", JsonValue::integer(cp.height));
    }
    g.set("numAxons", JsonValue::integer(geom.numAxons));
    g.set("numNeurons", JsonValue::integer(geom.numNeurons));
    g.set("delaySlots", JsonValue::integer(geom.delaySlots));
    g.set("instances", JsonValue::integer(sim.instances()));
    return g;
}

} // anonymous namespace

JsonValue
snapshotSimulator(const Simulator &sim)
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::string(kSnapshotFormat));
    doc.set("version", JsonValue::integer(kSnapshotVersion));
    doc.set("target",
            JsonValue::string(sim.isBoard() ? "board" : "chip"));
    EngineKind engine = sim.isBoard()
        ? sim.board().params().chip.engine
        : sim.chip().params().engine;
    doc.set("engine", JsonValue::string(engineName(engine)));
    doc.set("geometry", geometryJson(sim));

    JsonValue device;
    if (sim.isBoard())
        sim.board().saveState(device);
    else
        sim.chip().saveState(device);
    doc.set("device", std::move(device));

    JsonValue recorder = JsonValue::array();
    for (const OutputSpike &s : sim.recorder().spikes()) {
        recorder.append(
            JsonValue::integer(static_cast<int64_t>(s.tick)));
        recorder.append(JsonValue::integer(s.line));
        recorder.append(JsonValue::integer(s.instance));
    }
    doc.set("recorder", std::move(recorder));

    JsonValue sources = JsonValue::array();
    for (size_t i = 0; i < sim.numSources(); ++i) {
        JsonValue s;
        sim.source(i).saveState(s);
        sources.append(std::move(s));
    }
    doc.set("sources", std::move(sources));
    return doc;
}

SnapshotStatus
restoreSimulator(Simulator &sim, const JsonValue &snap)
{
    if (snap.type() != JsonValue::Type::Object)
        return failStatus("snapshot is not a JSON object");
    std::string format = snap.getString("format", "");
    if (format != kSnapshotFormat)
        return failStatus("not an nscs snapshot (format tag is '" +
                          format + "')");
    int64_t version = snap.getInt("version", -1);
    if (version != kSnapshotVersion)
        return failStatus("snapshot version " +
                          std::to_string(version) +
                          " unsupported (this build reads version " +
                          std::to_string(kSnapshotVersion) + ")");

    const char *target = sim.isBoard() ? "board" : "chip";
    if (snap.getString("target", "") != target)
        return failStatus("snapshot targets a " +
                          snap.getString("target", "?") +
                          ", simulator drives a " + target);
    EngineKind engine = sim.isBoard()
        ? sim.board().params().chip.engine
        : sim.chip().params().engine;
    if (snap.getString("engine", "") != engineName(engine))
        return failStatus("snapshot engine '" +
                          snap.getString("engine", "?") +
                          "' does not match simulator engine '" +
                          engineName(engine) + "'");
    if (!sim.isBoard() &&
        sim.chip().params().noc != NocModel::Functional)
        return failStatus("snapshots require the functional "
                          "transport model");

    if (!snap.has("geometry") ||
        snap.at("geometry").type() != JsonValue::Type::Object)
        return failStatus("snapshot carries no geometry header");
    JsonValue expected = geometryJson(sim);
    const JsonValue &geometry = snap.at("geometry");
    for (const std::string &key : expected.keys()) {
        int64_t have = expected.at(key).asInt();
        int64_t got = geometry.getInt(key, -1);
        if (got != have)
            return failStatus("geometry mismatch: snapshot " + key +
                              " is " + std::to_string(got) +
                              ", simulator has " +
                              std::to_string(have));
    }

    if (!snap.has("device"))
        return failStatus("snapshot carries no device state");
    bool restored = sim.isBoard()
        ? sim.board().restoreState(snap.at("device"))
        : sim.chip().restoreState(snap.at("device"));
    if (!restored)
        return failStatus("device state rejected: snapshot is "
                          "malformed or from a different model");

    sim.recorder().clear();
    if (snap.has("recorder")) {
        const JsonValue &recorder = snap.at("recorder");
        if (recorder.type() != JsonValue::Type::Array ||
            recorder.size() % 3 != 0)
            return failStatus("recorder state is malformed");
        for (size_t i = 0; i < recorder.size(); i += 3)
            sim.recorder().record(
                {static_cast<uint64_t>(recorder.at(i).asInt()),
                 static_cast<uint32_t>(recorder.at(i + 1).asInt()),
                 static_cast<uint32_t>(recorder.at(i + 2).asInt())});
    }

    if (snap.has("sources")) {
        const JsonValue &sources = snap.at("sources");
        if (sources.type() != JsonValue::Type::Array)
            return failStatus("source states are no array");
        if (sources.size() != sim.numSources())
            return failStatus(
                "snapshot has " + std::to_string(sources.size()) +
                " source states, simulator has " +
                std::to_string(sim.numSources()) + " sources");
        for (size_t i = 0; i < sources.size(); ++i)
            if (!sim.source(i).restoreState(sources.at(i)))
                return failStatus("source " + std::to_string(i) +
                                  " rejected its state");
    } else if (sim.numSources() != 0) {
        return failStatus("snapshot carries no source states but "
                          "the simulator has sources");
    }
    return {};
}

SnapshotStatus
saveSnapshotFile(const Simulator &sim, const std::string &path)
{
    if (!writeFile(path, snapshotSimulator(sim).dump(2) + "\n"))
        return failStatus("cannot write snapshot file " + path);
    return {};
}

SnapshotStatus
loadSnapshotFile(Simulator &sim, const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        return failStatus("cannot read snapshot file " + path);
    JsonParseResult parsed = parseJson(text);
    if (!parsed.ok)
        return failStatus("snapshot file " + path + ": " +
                          parsed.error);
    return restoreSimulator(sim, parsed.value);
}

} // namespace nscs
