/**
 * @file
 * Top-level simulation driver.
 *
 * The Simulator owns a target device — a single Chip or a Board of
 * chips — plus a set of input sources and an output recorder, and
 * runs the per-tick loop:
 *
 *   1. poll every source for this tick's input spikes and inject
 *      them for same-tick delivery;
 *   2. execute the device tick;
 *   3. drain output spikes into the recorder.
 *
 * Input spikes address cores by *global* row-major index in both
 * modes (a board resolves the index to a (chip, local core) pair),
 * so sources and compiled models are device-agnostic.
 *
 * It also keeps wall-clock statistics (ticks/second, real-time
 * headroom at the nominal 1 ms tick) used by the scaling and
 * real-time benches.
 */

#ifndef NSCS_RUNTIME_SIMULATOR_HH
#define NSCS_RUNTIME_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "board/board.hh"
#include "chip/chip.hh"
#include "runtime/sink.hh"
#include "runtime/source.hh"

namespace nscs {

/** Checkpoint/rollback bookkeeping (fault recovery). */
struct RecoveryStats
{
    uint64_t checkpoints = 0;        //!< checkpoints taken
    uint64_t rollbacks = 0;          //!< restores after an alarm
    uint64_t replayedTicks = 0;      //!< ticks re-executed, total
    uint64_t unrecoveredAlarms = 0;  //!< alarms with no checkpoint
    uint64_t lastRecoveryLatencyTicks = 0; //!< replay span, last
    uint64_t maxRecoveryLatencyTicks = 0;  //!< replay span, worst
};

/** Document keys of the RecoveryStats fields. */
inline constexpr CounterField<RecoveryStats> kRecoveryStatsFields[] = {
    {"checkpoints", &RecoveryStats::checkpoints},
    {"rollbacks", &RecoveryStats::rollbacks},
    {"replayedTicks", &RecoveryStats::replayedTicks},
    {"unrecoveredAlarms", &RecoveryStats::unrecoveredAlarms},
    {"lastRecoveryLatencyTicks", &RecoveryStats::lastRecoveryLatencyTicks},
    {"maxRecoveryLatencyTicks", &RecoveryStats::maxRecoveryLatencyTicks},
};

/** Wall-clock performance of a run() call. */
struct RunPerf
{
    uint64_t ticks = 0;        //!< ticks executed
    double seconds = 0.0;      //!< wall-clock seconds
    uint64_t spikesOut = 0;    //!< output spikes in the window

    /** Simulated ticks per wall-clock second. */
    double
    ticksPerSecond() const
    {
        return seconds > 0.0 ? static_cast<double>(ticks) / seconds : 0.0;
    }

    /**
     * Fraction of real time at @p tick_seconds per tick (> 1 means
     * faster than real time).
     */
    double
    realTimeFactor(double tick_seconds = 1e-3) const
    {
        return ticksPerSecond() * tick_seconds;
    }
};

/** Device (chip or board) + I/O harness. */
class Simulator
{
  public:
    /** Build a single-chip target from params and configs. */
    Simulator(const ChipParams &params,
              std::vector<CoreConfig> configs);

    /** Build a board target; @p configs covers the global core grid
     *  in row-major order (see Board). */
    Simulator(const BoardParams &params,
              std::vector<CoreConfig> configs);

    /**
     * Attach an input source (polled every tick, in order).  With
     * @p instance nonzero the source's spikes are stamped onto that
     * instance lane of a batched device; spikes whose InputSpike
     * already names a lane (instance binding 0) pass through
     * untouched.
     */
    void addSource(std::unique_ptr<SpikeSource> source,
                   uint32_t instance = 0);

    /** Run @p ticks ticks; returns wall-clock performance. */
    RunPerf run(uint64_t ticks);

    /** True when the target is a board. */
    bool isBoard() const { return board_ != nullptr; }

    /** The chip (single-chip targets only). */
    Chip &chip() { return *chip_; }

    /** The chip (const; single-chip targets only). */
    const Chip &chip() const { return *chip_; }

    /** The board (board targets only). */
    Board &board() { return *board_; }

    /** The board (const; board targets only). */
    const Board &board() const { return *board_; }

    /** Recorded output spikes. */
    SpikeRecorder &recorder() { return recorder_; }

    /** Recorded output spikes (const). */
    const SpikeRecorder &recorder() const { return recorder_; }

    /** Reset device, recorder and performance counters; drops the
     *  held checkpoint and recovery stats (sources keep their own
     *  state and are not reset). */
    void reset();

    /** Next tick to execute, whichever device backs the run. */
    uint64_t now() const { return chip_ ? chip_->now() : board_->now(); }

    /** Source access (snapshot machinery). */
    SpikeSource &source(size_t i) { return *sources_[i]; }

    /** Source access (const). */
    const SpikeSource &source(size_t i) const { return *sources_[i]; }

    /** Instance lanes of the backing device. */
    uint32_t instances() const
    {
        return chip_ ? chip_->instances()
                     : board_->params().chip.instances;
    }

    // --- snapshot / checkpoint / recovery --------------------------------

    /** Serialize device + sources + recorder (runtime/snapshot.hh). */
    JsonValue snapshot() const;

    /**
     * Restore a snapshot() document.  The simulator must be built
     * from the same model and parameters (target kind, engine,
     * geometry and source count are validated).  On a mismatch or a
     * malformed document returns false and, when @p err is non-null,
     * stores the reason; the simulator's state is then unspecified —
     * reset() it before further use.
     */
    bool restore(const JsonValue &snap, std::string *err = nullptr);

    /** Snapshot to a file (pretty-printed JSON). */
    bool saveStateFile(const std::string &path,
                       std::string *err = nullptr) const;

    /** Read @p path and restore() it. */
    bool restoreStateFile(const std::string &path,
                          std::string *err = nullptr);

    /**
     * Checkpoint every @p every ticks during run() (0 disables).  A
     * checkpoint is an in-memory snapshot.  While one is held, a
     * detected-fault alarm rolls the simulation back to it,
     * suppresses the faults that alarmed and replays
     * deterministically, so transient upsets leave no trace in the
     * spike record; an alarm with no checkpoint held is counted in
     * RecoveryStats::unrecoveredAlarms.
     */
    void setCheckpointInterval(uint64_t every)
    {
        checkpointEvery_ = every;
    }

    /** Checkpoint/rollback counters. */
    const RecoveryStats &recoveryStats() const { return recovery_; }

    /** Heap footprint: device + recorder + checkpoint buffers. */
    size_t footprintBytes() const;

  private:
    void maybeCheckpoint();
    void handleAlarms();

    std::unique_ptr<Chip> chip_;     //!< exactly one of chip_ /
    std::unique_ptr<Board> board_;   //!< board_ is non-null
    std::vector<std::unique_ptr<SpikeSource>> sources_;
    std::vector<uint32_t> sourceInstances_;  //!< lane per source
    SpikeRecorder recorder_;
    std::vector<InputSpike> inputScratch_;

    // Checkpoint-rollback recovery.  The checkpoint is held as the
    // dumped JSON text (cheap to keep, exact to restore); handled_
    // remembers every suppressed fault id so a rollback to a
    // checkpoint that predates an earlier recovery re-suppresses the
    // whole history before replaying.
    uint64_t checkpointEvery_ = 0;
    bool haveCheckpoint_ = false;
    uint64_t checkpointTick_ = 0;
    std::string checkpointBlob_;
    std::vector<uint32_t> handled_;
    std::vector<uint32_t> alarmScratch_;
    RecoveryStats recovery_;
};

} // namespace nscs

#endif // NSCS_RUNTIME_SIMULATOR_HH
