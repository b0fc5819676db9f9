#include "runtime/simulator.hh"

#include <algorithm>
#include <chrono>

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
        inputScratch_.clear();
        for (size_t si = 0; si < sources_.size(); ++si) {
            const size_t before = inputScratch_.size();
            sources_[si]->spikesFor(t, inputScratch_);
            if (sourceInstances_[si] != 0)
                for (size_t k = before; k < inputScratch_.size(); ++k)
                    inputScratch_[k].instance = sourceInstances_[si];
        }
        if (chip_) {
            chip_->injectInputs(inputScratch_, t);
            chip_->tick();
            if (!chip_->outputs().empty()) {
                recorder_.recordAll(chip_->outputs());
                chip_->clearOutputs();
            }
        } else {
            board_->injectInputs(inputScratch_, t);
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

JsonValue
Simulator::snapshot() const
{
    return snapshotSimulator(*this);
}

bool
Simulator::restore(const JsonValue &snap, std::string *err)
{
    SnapshotStatus status = restoreSimulator(*this, snap);
    if (!status.ok && err)
        *err = status.error;
    return status.ok;
}

bool
Simulator::saveStateFile(const std::string &path,
                         std::string *err) const
{
    SnapshotStatus status = saveSnapshotFile(*this, path);
    if (!status.ok && err)
        *err = status.error;
    return status.ok;
}

bool
Simulator::restoreStateFile(const std::string &path, std::string *err)
{
    SnapshotStatus status = loadSnapshotFile(*this, path);
    if (!status.ok && err)
        *err = status.error;
    return status.ok;
}

size_t
Simulator::footprintBytes() const
{
    size_t bytes = sizeof(Simulator);
    bytes += chip_ ? chip_->footprintBytes()
                   : board_->footprintBytes();
    bytes += recorder_.footprintBytes();
    bytes += inputScratch_.capacity() * sizeof(InputSpike);
    bytes += sourceInstances_.capacity() * sizeof(uint32_t);
    bytes += checkpointBlob_.capacity();
    bytes += handled_.capacity() * sizeof(uint32_t);
    bytes += alarmScratch_.capacity() * sizeof(uint32_t);
    return bytes;
}

void
Simulator::reset()
{
    if (chip_)
        chip_->reset();
    else
        board_->reset();
    recorder_.clear();
    haveCheckpoint_ = false;
    checkpointTick_ = 0;
    checkpointBlob_.clear();
    handled_.clear();
    alarmScratch_.clear();
    recovery_ = RecoveryStats{};
}

} // namespace nscs
