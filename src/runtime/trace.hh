/**
 * @file
 * Spike trace output, input schedule parsing and ASCII raster
 * rendering.
 *
 * Trace format: one "tick line [instance]" entry per text line
 * after a '#' header.  Input schedule format: one "tick inputName"
 * entry per text line, blank lines and lines starting with '#'
 * skipped.  Rasters render lines as rows and ticks as columns, '|'
 * marking a spike — the library's stand-in for the paper's raster
 * figures.
 */

#ifndef NSCS_RUNTIME_TRACE_HH
#define NSCS_RUNTIME_TRACE_HH

#include <string>
#include <vector>

#include "chip/chip.hh"

namespace nscs {

/** Serialize a spike list to the text trace format. */
std::string formatSpikeTrace(const std::vector<OutputSpike> &spikes);

/** Write a trace file; false on I/O error. */
bool writeSpikeTrace(const std::string &path,
                     const std::vector<OutputSpike> &spikes);

/** One input schedule entry: fire input line @p name at @p tick. */
struct ScheduledInput
{
    uint64_t tick = 0;
    std::string name;

    bool operator==(const ScheduledInput &other) const = default;
};

/**
 * Parse an input schedule into @p out, entries in file order.  The
 * tick must be a decimal integer in uint64 range and nothing may
 * follow the name.  @return false on the first malformed line, with
 * @p err naming it ("line N: ..."); @p out is unchanged on failure.
 */
bool parseInputSchedule(const std::string &text,
                        std::vector<ScheduledInput> &out,
                        std::string &err);

/**
 * Render lines [line0, line0+nlines) over ticks [t0, t1) as an ASCII
 * raster, one row per line: '|' spike, '.' silence.
 */
std::string renderRaster(const std::vector<OutputSpike> &spikes,
                         uint32_t line0, uint32_t nlines,
                         uint64_t t0, uint64_t t1);

/**
 * Render a single spike train (ticks of one unit) as one raster row.
 */
std::string renderSpikeRow(const std::vector<uint32_t> &ticks,
                           uint32_t t0, uint32_t t1);

} // namespace nscs

#endif // NSCS_RUNTIME_TRACE_HH
