/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * A span is (name, start, end, parent), recorded by the benchmark
 * around its own calls into the program's layers.  Spans stay in
 * memory while the traced loop runs and are written out after it; a
 * span's self time is its duration minus the part its children cover.
 */

#ifndef NSCS_BENCH_TRACE_HH
#define NSCS_BENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace nscs_bench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Span recorder.  Names must be string literals (stored by pointer). */
class Tracer
{
  public:
    /** Per-name aggregate over all recorded spans. */
    struct Totals
    {
        double selfSeconds = 0.0;
        double seconds = 0.0;
        uint64_t count = 0;
    };

    /** Open a span; @return its id (the parent of nested spans). */
    int32_t
    open(const char *name, int32_t parent = -1)
    {
        spans_.push_back({name, parent, Clock::now(), {}});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void close(int32_t id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }

    void clear() { spans_.clear(); }

    /** Self and total time per span name. */
    std::map<std::string, Totals>
    totals() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<size_t>(s.parent)] += duration(s);
        std::map<std::string, Totals> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            Totals &t = out[spans_[i].name];
            t.seconds += duration(spans_[i]);
            t.selfSeconds += duration(spans_[i]) - child[i];
            ++t.count;
        }
        return out;
    }

    /** Summed duration of the root spans. */
    double
    rootSeconds() const
    {
        double s = 0.0;
        for (const Span &sp : spans_)
            if (sp.parent < 0)
                s += duration(sp);
        return s;
    }

    /**
     * Write the spans to @p path as a JSON array, one span per line,
     * times in microseconds from the first span.  Streamed: a traced
     * classifier run records hundreds of thousands of spans.
     */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[";
        const Clock::time_point t0 =
            spans_.empty() ? Clock::time_point{} : spans_.front().start;
        char line[160];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(line, sizeof(line),
                          "%s\n{\"name\":\"%s\",\"parent\":%d,"
                          "\"start_us\":%.3f,\"end_us\":%.3f}",
                          i ? "," : "", s.name, s.parent,
                          secondsBetween(t0, s.start) * 1e6,
                          secondsBetween(t0, s.end) * 1e6);
            out << line;
        }
        out << "\n]\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        const char *name;
        int32_t parent;
        Clock::time_point start, end;
    };

    static double duration(const Span &s) { return secondsBetween(s.start, s.end); }

    std::vector<Span> spans_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, int32_t parent = -1)
        : t_(t), id_(t.open(name, parent))
    {
    }
    ~SpanScope() { t_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int32_t id() const { return id_; }

  private:
    Tracer &t_;
    int32_t id_;
};

} // namespace nscs_bench

#endif // NSCS_BENCH_TRACE_HH
