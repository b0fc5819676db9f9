/**
 * @file
 * Small statistics package: running scalar statistics, linear
 * histograms and the counter tables that name each counter struct's
 * fields, in the spirit of gem5's stats.
 *
 * Everything is plain value types; benches and the energy model read
 * the counters directly.
 */

#ifndef NSCS_UTIL_STATS_HH
#define NSCS_UTIL_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "util/json.hh"

namespace nscs {

/**
 * Streaming scalar statistic: mean and max without storing samples.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        if (x > max_)
            max_ = x;
    }

    /** Sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Largest sample (0 when empty). */
    double max() const { return n_ ? max_ : 0.0; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Linear-bin histogram over [lo, hi) with an underflow bucket; a
 * sample at or above hi counts only in the total.  Supports quantile
 * queries over binned data.
 */
class Histogram
{
  public:
    /** @p nbins bins spanning [lo, hi). */
    Histogram(double lo, double hi, size_t nbins);

    /** Add one sample. */
    void add(double x);

    /** Mean of all samples (exact, tracked separately). */
    double mean() const { return stat_.mean(); }

    /**
     * Approximate quantile (0..1) using bin upper edges; overflow
     * samples report the exact observed max.
     */
    double quantile(double q) const;

  private:
    double lo_, hi_, width_;
    std::vector<uint64_t> bins_;
    uint64_t underflow_ = 0;
    uint64_t count_ = 0;
    RunningStat stat_;
};

/**
 * One uint64 counter of struct @p S and its document key.  Each
 * counter struct declares one table of these beside it; snapshots,
 * the stats document (see Chip::stats) and counter sums all read
 * that table, so every counter has one name everywhere.
 */
template <typename S>
struct CounterField
{
    const char *key;
    uint64_t S::*field;
    /** Recomputed from other state when read, so never snapshotted. */
    bool derived = false;
};

/** Add every counter of @p s into @p sum. */
template <typename S, size_t N>
void
addCounters(S &sum, const S &s, const CounterField<S> (&fields)[N])
{
    for (const CounterField<S> &f : fields)
        sum.*f.field += s.*f.field;
}

/** The @p fields of @p s as an object of non-negative ints; derived
 *  fields are left out unless @p with_derived. */
template <typename S, size_t N>
JsonValue
countersToJson(const S &s, const CounterField<S> (&fields)[N],
               bool with_derived = true)
{
    JsonValue out = JsonValue::object();
    for (const CounterField<S> &f : fields)
        if (with_derived || !f.derived)
            out.set(f.key,
                    JsonValue::integer(static_cast<int64_t>(s.*f.field)));
    return out;
}

/** Read countersToJson output into the non-derived fields of @p s;
 *  a missing key reads as 0. */
template <typename S, size_t N>
bool
readCounters(const JsonValue &v, S &s, const CounterField<S> (&fields)[N])
{
    if (v.type() != JsonValue::Type::Object)
        return false;
    for (const CounterField<S> &f : fields) {
        if (f.derived)
            continue;
        s.*f.field = 0;
        if (v.has(f.key) && !readInt(v, f.key, s.*f.field))
            return false;
    }
    return true;
}

/** An empty stats document, {"format": "nscs-stats", "version": 1},
 *  that Chip::stats and Board::stats fill with counter groups. */
JsonValue statsDocument();

} // namespace nscs

#endif // NSCS_UTIL_STATS_HH
