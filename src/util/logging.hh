/**
 * @file
 * Status/error reporting for the simulator, in the gem5 tradition.
 *
 * Two terminating reporters with distinct meanings:
 *
 *  - panic():  something happened that should never happen regardless
 *              of user input — a simulator bug.  Calls std::abort so a
 *              core dump / debugger break is possible.
 *  - fatal():  the simulation cannot continue because of a *user*
 *              error (bad configuration, invalid model file...).
 *              Exits with status 1.
 *
 * One non-terminating reporter:
 *
 *  - warn():   functionality is questionable but the run continues.
 *
 * All take printf-style format strings.  NSCS_ASSERT(cond, ...) is a
 * panic-on-failure assertion that stays enabled in release builds; it
 * guards simulator invariants, not user input.
 */

#ifndef NSCS_UTIL_LOGGING_HH
#define NSCS_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace nscs {

/** Terminate with a simulator-bug diagnostic (calls std::abort). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Terminate with a user-error diagnostic (calls std::exit(1)). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Emit a non-fatal warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress / restore warn() output (used by tests). */
void setQuiet(bool quiet);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list ap);

} // namespace nscs

/**
 * Invariant assertion that survives release builds.  On failure it
 * panics with file/line plus the formatted message.
 */
#define NSCS_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::nscs::panic("assertion '%s' failed at %s:%d: %s",         \
                          #cond, __FILE__, __LINE__,                    \
                          ::nscs::strprintf(__VA_ARGS__).c_str());      \
        }                                                               \
    } while (0)

#endif // NSCS_UTIL_LOGGING_HH
