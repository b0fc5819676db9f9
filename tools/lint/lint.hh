/**
 * @file
 * nscs_lint — repo-specific determinism and hygiene linter.
 *
 * Enforces invariants of the nscs tree that no generic tool knows
 * about.  The engine lints one translation unit at a time from an
 * in-memory buffer (so the self-tests can feed it fixture snippets)
 * and reports findings as structured values; the nscs_lint CLI walks
 * directories and turns findings into diagnostics + exit status.
 *
 * Rules (ids as reported in findings):
 *
 *  - wall-clock:       no wall-clock time sources (time(), clock(),
 *                      std::chrono clocks, gettimeofday...) in
 *                      library code.  Simulated time is the tick
 *                      counter; host time makes runs unreproducible.
 *  - raw-random:       no rand()/srand()/std::random_device/
 *                      std::mt19937/... — all randomness must flow
 *                      through util/rng (Lfsr16 for architectural
 *                      draws, Xoshiro256 host-side), which is seeded
 *                      and deterministic.
 *  - raw-io:           no printf()/puts()/std::cout/std::cerr —
 *                      library code reports through util/logging
 *                      (warn/fatal/panic) so output is
 *                      uniform and test-suppressible.  fprintf is
 *                      allowed only when targeting stderr (that is
 *                      what util/logging itself uses).
 *  - priority-queue:   no std::priority_queue — tick paths must use
 *                      an explicit vector heap (push_heap/pop_heap)
 *                      so stale entries can be lazily compacted and
 *                      the footprint accounted (the PR-3 self-event
 *                      heap lesson).
 *  - file-scope-state: no unguarded mutable file-scope (namespace
 *                      scope) variables — shared mutable globals are
 *                      invisible coupling and a data-race hazard
 *                      under the parallel tick engine.  const /
 *                      constexpr / std::atomic / thread_local are
 *                      all fine.
 *  - simd-guard:       no vendor SIMD intrinsics (the _mm and __m
 *                      prefixes, NEON vopq_ty intrinsics and
 *                      element-x-lane vector types) or intrinsic
 *                      headers (immintrin.h, arm_neon.h, ...)
 *                      outside the dispatch layer src/util/simd.hh
 *                      and simd.cc — kernels live behind
 *                      nscs::simd::ops() so the cpuid probe and the
 *                      NSCS_SIMD override keep every level reachable
 *                      and differential tests can sweep them.
 *  - bad-allow:        an allow comment that names an unknown rule
 *                      or omits the reason text.
 *
 * Suppression: a finding on line N is waived by an allow comment on
 * line N or N-1 of the form
 *
 *     // nscs-lint: allow(<rule>): <non-empty reason>
 *
 * The reason is mandatory — an allow without one is itself a finding.
 *
 * The engine understands enough C++ lexing to skip comments, string
 * and character literals (including raw strings), so banned names in
 * documentation or message text do not trip the rules.
 */

#ifndef NSCS_TOOLS_LINT_LINT_HH
#define NSCS_TOOLS_LINT_LINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nscs::lint {

/** One rule violation. */
struct Finding
{
    std::string file;     //!< path as handed to lintSource
    uint32_t line = 0;    //!< 1-based line number
    std::string rule;     //!< rule id, e.g. "raw-random"
    std::string message;  //!< human-readable diagnostic

    bool operator==(const Finding &other) const = default;
};

/** All rule ids the engine knows, in reporting order. */
const std::vector<std::string> &ruleIds();

/**
 * Lint one source buffer.  @p path is used for diagnostics only; the
 * engine never touches the filesystem.  Findings come back in line
 * order.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** @return true for files the linter covers (.hh / .cc). */
bool lintableFile(const std::string &path);

} // namespace nscs::lint

#endif // NSCS_TOOLS_LINT_LINT_HH
