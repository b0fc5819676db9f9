/**
 * @file
 * Shape checks of the paper experiments.  Each experiment prints its
 * table, asserts the claim's shape with shapeCheck() and ends with
 * shapeOk(): the output's last line is `shape: ok`, or the first
 * failed claim and exit status 1.  CTest registers every such
 * program as `paper.<program>` (bench/CMakeLists.txt).
 */

#ifndef NSCS_BENCH_SHAPE_HH
#define NSCS_BENCH_SHAPE_HH

#include <cstdlib>
#include <iostream>
#include <string>

namespace nscs {
namespace bench {

/** Unless @p ok, print the failed @p claim and exit with status 1. */
inline void
shapeCheck(bool ok, const std::string &claim)
{
    if (ok)
        return;
    std::cout << "shape: FAILED: " << claim << "\n";
    std::exit(1);
}

/** Report that every check held; @return main's exit status. */
inline int
shapeOk()
{
    std::cout << "shape: ok\n";
    return 0;
}

} // namespace bench
} // namespace nscs

#endif // NSCS_BENCH_SHAPE_HH
