#include "runtime/trace.hh"

#include <charconv>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace nscs {

std::string
formatSpikeTrace(const std::vector<OutputSpike> &spikes)
{
    std::ostringstream os;
    os << "# nscs spike trace: tick line [instance]\n";
    for (const auto &s : spikes) {
        os << s.tick << ' ' << s.line;
        if (s.instance != 0)
            os << ' ' << s.instance;
        os << '\n';
    }
    return os.str();
}

bool
writeSpikeTrace(const std::string &path,
                const std::vector<OutputSpike> &spikes)
{
    return writeFile(path, formatSpikeTrace(spikes));
}

bool
parseInputSchedule(const std::string &text,
                   std::vector<ScheduledInput> &out, std::string &err)
{
    std::vector<ScheduledInput> parsed;
    std::istringstream is(text);
    std::string line;
    for (size_t lineno = 1; std::getline(is, line); ++lineno) {
        std::istringstream ls(line);
        std::string tick, name, extra;
        if (!(ls >> tick) || tick[0] == '#')
            continue;
        if (!(ls >> name)) {
            err = strprintf("line %zu: expected 'tick inputName'", lineno);
            return false;
        }
        if (ls >> extra) {
            err = strprintf("line %zu: unexpected '%s' after the input name",
                            lineno, extra.c_str());
            return false;
        }
        // from_chars takes no sign or space, so "-5" is rejected
        // rather than wrapped to a tick near 2^64.
        ScheduledInput entry{0, std::move(name)};
        const char *end = tick.data() + tick.size();
        auto [ptr, ec] = std::from_chars(tick.data(), end, entry.tick);
        if (ec == std::errc::result_out_of_range) {
            err = strprintf("line %zu: tick '%s' is out of range", lineno,
                            tick.c_str());
            return false;
        }
        if (ec != std::errc() || ptr != end) {
            err = strprintf("line %zu: tick '%s' is not a non-negative "
                            "decimal integer",
                            lineno, tick.c_str());
            return false;
        }
        parsed.push_back(std::move(entry));
    }
    out = std::move(parsed);
    return true;
}

std::string
renderRaster(const std::vector<OutputSpike> &spikes, uint32_t line0,
             uint32_t nlines, uint64_t t0, uint64_t t1)
{
    size_t width = static_cast<size_t>(t1 - t0);
    std::vector<std::string> rows(nlines, std::string(width, '.'));
    for (const auto &s : spikes) {
        if (s.line < line0 || s.line >= line0 + nlines)
            continue;
        if (s.tick < t0 || s.tick >= t1)
            continue;
        rows[s.line - line0][static_cast<size_t>(s.tick - t0)] = '|';
    }
    std::ostringstream os;
    for (uint32_t i = 0; i < nlines; ++i)
        os << "line " << (line0 + i) << "  " << rows[i] << '\n';
    return os.str();
}

std::string
renderSpikeRow(const std::vector<uint32_t> &ticks, uint32_t t0,
               uint32_t t1)
{
    std::string row(t1 - t0, '.');
    for (uint32_t t : ticks)
        if (t >= t0 && t < t1)
            row[t - t0] = '|';
    return row;
}

} // namespace nscs
