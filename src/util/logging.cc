#include "util/logging.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace nscs {

namespace {

// Atomic: warn() is legal from pool worker threads while a
// test toggles setQuiet() on the main thread.
std::atomic<bool> quietFlag{false};

void
report(const char *prefix, const char *fmt, std::va_list ap)
{
    std::string msg = vstrprintf(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // anonymous namespace

std::string
vstrprintf(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    report("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    report("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    report("warn", fmt, ap);
    va_end(ap);
}

void
setQuiet(bool q)
{
    quietFlag = q;
}

} // namespace nscs
