#include "runtime/simulator.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "runtime/snapshot.hh"
#include "util/logging.hh"

namespace nscs {

Simulator::Simulator(const ChipParams &params,
                     std::vector<CoreConfig> configs)
    : chip_(std::make_unique<Chip>(params, std::move(configs)))
{
}

Simulator::Simulator(const BoardParams &params,
                     std::vector<CoreConfig> configs)
    : board_(std::make_unique<Board>(params, std::move(configs)))
{
}

void
Simulator::addSource(std::unique_ptr<SpikeSource> source,
                     uint32_t instance)
{
    NSCS_ASSERT(instance < instances(),
                "source bound to instance %u of %u", instance,
                instances());
    sources_.push_back(std::move(source));
    sourceInstances_.push_back(instance);
}

RunPerf
Simulator::run(uint64_t ticks)
{
    // RunPerf reports host ticks/sec for benches; the measured
    // duration never feeds back into the simulation, so output
    // stays deterministic.
    // nscs-lint: allow(wall-clock): host-side perf reporting only
    using clock = std::chrono::steady_clock;
    RunPerf perf;
    uint64_t out_before = recorder_.size();
    auto start = clock::now();

    // The loop targets an end tick rather than counting iterations:
    // a rollback rewinds now(), and the replayed ticks re-execute
    // through the same loop until the target is reached again.
    const uint64_t target = now() + ticks;
    while (now() < target) {
        maybeCheckpoint();
        const uint64_t t = now();
        wordScratch_.clear();
        for (size_t si = 0; si < sources_.size(); ++si) {
            const size_t before = wordScratch_.size();
            sources_[si]->wordsFor(t, wordScratch_);
            if (sourceInstances_[si] != 0)
                for (size_t k = before; k < wordScratch_.size(); ++k)
                    wordScratch_[k].instance = sourceInstances_[si];
        }
        if (chip_) {
            chip_->injectWords(wordScratch_.data(), wordScratch_.size(), t);
            chip_->tick();
            if (!chip_->outputs().empty()) {
                recorder_.recordAll(chip_->outputs());
                chip_->clearOutputs();
            }
        } else {
            board_->injectWords(wordScratch_.data(), wordScratch_.size(),
                                t);
            board_->tick();
            if (!board_->outputs().empty()) {
                recorder_.recordAll(board_->outputs());
                board_->clearOutputs();
            }
        }
        alarmScratch_.clear();
        if (chip_ && chip_->params().faultPlan)
            chip_->drainDetectedFaults(alarmScratch_);
        else if (board_ && board_->params().faultPlan)
            board_->drainDetectedFaults(alarmScratch_);
        if (!alarmScratch_.empty())
            handleAlarms();
    }

    auto stop = clock::now();
    perf.ticks = ticks;
    perf.seconds =
        std::chrono::duration<double>(stop - start).count();
    perf.spikesOut = recorder_.size() - out_before;
    return perf;
}

void
Simulator::maybeCheckpoint()
{
    if (checkpointEvery_ == 0 || now() % checkpointEvery_ != 0)
        return;
    if (haveCheckpoint_ && checkpointTick_ == now())
        return;  // just rolled back to this very tick
    checkpointBlob_ = snapshot().dump();
    checkpointTick_ = now();
    haveCheckpoint_ = true;
    ++recovery_.checkpoints;
}

void
Simulator::handleAlarms()
{
    // Dedup against everything already handled: a window fault can
    // alarm once per affected packet, and a rollback must suppress
    // each plan event exactly once.
    size_t fresh = 0;
    for (uint32_t id : alarmScratch_) {
        if (std::find(handled_.begin(), handled_.end(), id) ==
            handled_.end()) {
            handled_.push_back(id);
            ++fresh;
        }
    }
    if (fresh == 0)
        return;
    if (!haveCheckpoint_) {
        recovery_.unrecoveredAlarms += fresh;
        return;
    }

    const uint64_t detectedAt = now();  // the faulty tick completed
    JsonParseResult parsed = parseJson(checkpointBlob_);
    NSCS_ASSERT(parsed.ok, "held checkpoint no longer parses: %s",
                parsed.error.c_str());
    std::string err;
    bool ok = restore(parsed.value, &err);
    NSCS_ASSERT(ok, "held checkpoint no longer restores: %s",
                err.c_str());
    // The checkpoint predates every suppression — re-apply the full
    // handled history, not just this alarm's ids.
    for (uint32_t id : handled_) {
        if (chip_)
            chip_->suppressFault(id);
        else
            board_->suppressFault(id);
    }
    ++recovery_.rollbacks;
    uint64_t span = detectedAt - checkpointTick_;
    recovery_.replayedTicks += span;
    recovery_.lastRecoveryLatencyTicks = span;
    recovery_.maxRecoveryLatencyTicks =
        std::max(recovery_.maxRecoveryLatencyTicks, span);
}

namespace {

/** The parameters of @p sim's chip (each chip's, on a board). */
const ChipParams &
chipParams(const Simulator &sim)
{
    return sim.isBoard() ? sim.board().params().chip : sim.chip().params();
}

const char *
engineName(const Simulator &sim)
{
    return chipParams(sim).engine == EngineKind::Clock ? "clock" : "event";
}

/** Static shape of the simulated device, for restore validation. */
std::vector<std::pair<const char *, int64_t>>
geometryFields(const Simulator &sim)
{
    const ChipParams &cp = chipParams(sim);
    std::vector<std::pair<const char *, int64_t>> g = {
        {"chipWidth", cp.width},
        {"chipHeight", cp.height},
        {"numAxons", cp.coreGeom.numAxons},
        {"numNeurons", cp.coreGeom.numNeurons},
        {"delaySlots", cp.coreGeom.delaySlots},
        {"instances", cp.instances}};
    if (sim.isBoard())
        g.insert(g.end(), {{"boardWidth", sim.board().params().width},
                           {"boardHeight", sim.board().params().height}});
    return g;
}

/** Store @p msg in @p err (when non-null); @return false. */
bool
fail(std::string *err, std::string msg)
{
    if (err)
        *err = std::move(msg);
    return false;
}

} // anonymous namespace

JsonValue
Simulator::snapshot() const
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::string(kSnapshotFormat));
    doc.set("version", JsonValue::integer(kSnapshotVersion));
    doc.set("target", JsonValue::string(isBoard() ? "board" : "chip"));
    doc.set("engine", JsonValue::string(engineName(*this)));
    JsonValue geometry = JsonValue::object();
    for (const auto &[key, value] : geometryFields(*this))
        geometry.set(key, JsonValue::integer(value));
    doc.set("geometry", std::move(geometry));

    JsonValue device;
    if (chip_)
        chip_->saveState(device);
    else
        board_->saveState(device);
    doc.set("device", std::move(device));
    doc.set("recorder", outputSpikesToJson(recorder_.spikes()));

    JsonValue sources = JsonValue::array();
    for (const auto &source : sources_) {
        JsonValue s;
        source->saveState(s);
        sources.append(std::move(s));
    }
    doc.set("sources", std::move(sources));
    return doc;
}

bool
Simulator::restore(const JsonValue &snap, std::string *err)
{
    if (snap.type() != JsonValue::Type::Object)
        return fail(err, "snapshot is not a JSON object");
    std::string format, target = "?", engine = "?";
    int64_t version = -1;
    readString(snap, "format", format);
    readInt(snap, "version", version);
    readString(snap, "target", target);
    readString(snap, "engine", engine);
    if (format != kSnapshotFormat)
        return fail(err, "not an nscs snapshot (format tag is '" +
                             format + "')");
    if (version != kSnapshotVersion)
        return fail(err, "snapshot version " + std::to_string(version) +
                             " unsupported (this build reads version " +
                             std::to_string(kSnapshotVersion) + ")");
    const std::string ours = std::string(engineName(*this)) + " " +
                             (isBoard() ? "board" : "chip");
    if (engine + " " + target != ours)
        return fail(err, "snapshot target '" + engine + " " + target +
                             "' does not match simulator '" + ours + "'");
    if (chip_ && chip_->params().noc != NocModel::Functional)
        return fail(err, "snapshots require the functional transport "
                         "model");

    if (!snap.has("geometry") ||
        snap.at("geometry").type() != JsonValue::Type::Object)
        return fail(err, "snapshot carries no geometry header");
    for (const auto &[key, have] : geometryFields(*this)) {
        int64_t value = -1;
        readInt(snap.at("geometry"), key, value);
        if (value != have)
            return fail(err, std::string("geometry mismatch: snapshot ") +
                                 key + " is " + std::to_string(value) +
                                 ", simulator has " + std::to_string(have));
    }

    const bool parsed = snap.has("device") &&
        (chip_ ? chip_->restoreState(snap.at("device"))
               : board_->restoreState(snap.at("device")));
    const std::string rule = !parsed
        ? "snapshot is malformed or from a different model"
        : chip_ ? chip_->checkInvariants() : board_->checkInvariants();
    if (!rule.empty())
        return fail(err, "device state rejected: " + rule);

    std::vector<OutputSpike> recorded;
    if (!snap.has("recorder") ||
        !readOutputSpikes(snap.at("recorder"), recorded, instances()))
        return fail(err, "recorder state is malformed");
    recorder_.clear();
    recorder_.recordAll(recorded);

    if (!snap.has("sources") ||
        snap.at("sources").type() != JsonValue::Type::Array ||
        snap.at("sources").size() != sources_.size())
        return fail(err, "snapshot carries no array of " +
                             std::to_string(sources_.size()) +
                             " source states");
    for (size_t i = 0; i < sources_.size(); ++i)
        if (!sources_[i]->restoreState(snap.at("sources").at(i)))
            return fail(err, "source " + std::to_string(i) +
                                 " rejected its state");
    return true;
}

bool
Simulator::saveStateFile(const std::string &path,
                         std::string *err) const
{
    return writeFile(path, snapshot().dump(2) + "\n") ||
           fail(err, "cannot write snapshot file " + path);
}

bool
Simulator::restoreStateFile(const std::string &path, std::string *err)
{
    std::string text;
    if (!readFile(path, text))
        return fail(err, "cannot read snapshot file " + path);
    JsonParseResult parsed = parseJson(text);
    if (!parsed.ok)
        return fail(err, "snapshot file " + path + ": " + parsed.error);
    return restore(parsed.value, err);
}

size_t
Simulator::footprintBytes() const
{
    size_t bytes = sizeof(Simulator);
    bytes += chip_ ? chip_->footprintBytes()
                   : board_->footprintBytes();
    bytes += recorder_.footprintBytes();
    bytes += wordScratch_.capacity() * sizeof(InputWord);
    bytes += sourceInstances_.capacity() * sizeof(uint32_t);
    bytes += checkpointBlob_.capacity();
    bytes += handled_.capacity() * sizeof(uint32_t);
    bytes += alarmScratch_.capacity() * sizeof(uint32_t);
    return bytes;
}

} // namespace nscs
