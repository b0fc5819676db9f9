/**
 * @file
 * The classifier's input source: one pass of rate-coded samples.
 */

#ifndef NSCS_APPS_RATE_SOURCE_HH
#define NSCS_APPS_RATE_SOURCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/source.hh"

namespace nscs {

/**
 * Rate-coded inputs of one classifier pass: one sample per instance
 * lane, each feature a train of offsets in [0, window) from the
 * pass's first tick t0, delivered to that feature's input targets.
 *
 * load() transposes the (lane, feature) offset words once into one
 * feature-bit row per (offset, lane), so spikesFor(t) reads the rows
 * of offset t - t0 and emits lanes ascending, then features
 * ascending, then each feature's targets in order — the sequence an
 * explicit per-spike schedule stable-sorted by tick delivers.
 *
 * Ticks outside [t0, t0 + window) have no spikes.  A pass stays
 * readable until the next load(), so a checker or a replay can read
 * a finished pass's inputs back, and checkpoint rollback inside the
 * pass sees the same inputs again.
 */
class RateCodeSource : public SpikeSource
{
  public:
    /** @p targets: the input targets of each feature. */
    explicit RateCodeSource(std::vector<std::vector<InputSpike>> targets);

    /** Input targets of feature @p f. */
    const std::vector<InputSpike> &
    targets(uint32_t f) const
    {
        return targets_[f];
    }

    /**
     * Replace the pass.  @p trains holds @p lanes x features trains
     * of ceil(@p window / 64) words each, lane-major: train (i, f)
     * starts at word (i * features + f) * words, and bit b of its
     * word w is offset 64 * w + b (encodeRateMask's layout).
     * @return the spikes the pass injects.
     */
    uint64_t load(uint64_t t0, uint32_t window, size_t lanes,
                  const std::vector<uint64_t> &trains);

    void spikesFor(uint64_t t, std::vector<InputSpike> &out) override;

  private:
    std::vector<std::vector<InputSpike>> targets_;
    size_t featureWords_;  //!< words per feature-bit row
    uint64_t t0_ = 0;
    uint32_t window_ = 0;
    size_t lanes_ = 0;
    /** Feature-bit rows, row (offset * lanes_ + lane). */
    std::vector<uint64_t> rows_;
};

} // namespace nscs

#endif // NSCS_APPS_RATE_SOURCE_HH
