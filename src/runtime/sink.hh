/**
 * @file
 * Output spike log.
 *
 * The SpikeRecorder appends the off-chip spikes drained from the
 * device each tick, in arrival order, and nothing more.  Readers
 * (the classifier's readout, the snapshot writer, the tools' trace
 * printers) scan spikes() themselves.
 */

#ifndef NSCS_RUNTIME_SINK_HH
#define NSCS_RUNTIME_SINK_HH

#include <cstddef>
#include <vector>

#include "chip/chip.hh"

namespace nscs {

/** Append-only log of output spikes. */
class SpikeRecorder
{
  public:
    /** Append a batch. */
    void recordAll(const std::vector<OutputSpike> &batch)
    {
        spikes_.insert(spikes_.end(), batch.begin(), batch.end());
    }

    /** All spikes in arrival order. */
    const std::vector<OutputSpike> &spikes() const { return spikes_; }

    /** Total recorded spikes. */
    size_t size() const { return spikes_.size(); }

    /** Forget everything (keeps the capacity). */
    void clear() { spikes_.clear(); }

    /** Heap footprint of the log. */
    size_t footprintBytes() const
    {
        return spikes_.capacity() * sizeof(OutputSpike);
    }

  private:
    std::vector<OutputSpike> spikes_;
};

} // namespace nscs

#endif // NSCS_RUNTIME_SINK_HH
