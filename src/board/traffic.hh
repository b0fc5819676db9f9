/**
 * @file
 * Board traffic profiles and profile-derived routing.
 *
 * A TrafficProfile is the record of one trace run: how many spikes
 * crossed each (src chip, dst chip) pair, how loaded each inter-chip
 * link was (packets forwarded, stalls, drops), and — at full
 * resolution — how many spikes each global core cell sent to each
 * other cell.  It is harvested from a Board that ran with
 * BoardParams::traceTraffic set, serialized to JSON by nscs_run
 * --trace-traffic, and consumed in two places:
 *
 *  - CompileOptions::trafficProfile feeds the per-cell matrix into
 *    the placer so chip-crossing terms are weighted by *measured*
 *    volume instead of the one-packet-per-dest estimate, and
 *
 *  - BoardParams::trafficProfile feeds the per-link loads into
 *    congestionLinkWeights(), the link costs the Board's route table
 *    (buildRouteTable) minimizes instead of plain hop count.
 *
 * Both uses are deterministic: the profile is a pure function of a
 * seeded run, and everything derived from it (weights, shortest
 * paths, tie-breaks) is integer arithmetic with a stable order.
 */

#ifndef NSCS_BOARD_TRAFFIC_HH
#define NSCS_BOARD_TRAFFIC_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nscs {

class JsonValue;

/** Load observed on one directed inter-chip link during a trace. */
struct TrafficLinkLoad
{
    uint64_t packets = 0;  //!< packets forwarded over the link
    uint64_t stalls = 0;   //!< budget stalls charged to the link
    uint64_t drops = 0;    //!< queue-capacity drops at the link
};

/**
 * One trace run's measured communication, at chip-pair, link and
 * core-cell granularity.  Link index is chip * 4 + direction with
 * the Board's direction encoding (0 E, 1 W, 2 N, 3 S).
 */
struct TrafficProfile
{
    uint32_t boardW = 0;  //!< chips per row
    uint32_t boardH = 0;  //!< chip rows
    uint32_t chipW = 0;   //!< core columns per chip
    uint32_t chipH = 0;   //!< core rows per chip
    uint64_t ticks = 0;   //!< ticks the trace covered
    uint64_t egressSpikes = 0;

    /** Dense src-major numChips()^2 spike counts per chip pair. */
    std::vector<uint64_t> pairSpikes;

    /** Dense numChips() * 4 per-link loads. */
    std::vector<TrafficLinkLoad> links;

    /**
     * Sparse per-source-cell spike counts: cells[src][dst] = spikes,
     * with src/dst global core cells (y * boardW * chipW + x).
     * Full-fidelity: chips record their intra-chip routes and the
     * board its inter-chip ones, so the profile-guided placer sees
     * every exercised edge's true volume — including pairs the
     * traced placement happened to co-locate.
     */
    std::vector<std::map<uint32_t, uint64_t>> cells;

    uint64_t numChips() const { return uint64_t{boardW} * boardH; }
    uint64_t numCells() const { return numChips() * chipW * chipH; }
};

/** Serialize to the "nscs-traffic" v1 JSON document. */
JsonValue trafficProfileToJson(const TrafficProfile &profile);

/**
 * Parse a profile back; @return false (with *err set when non-null)
 * on format violations.
 */
bool trafficProfileFromJson(const JsonValue &doc,
                            TrafficProfile &profile,
                            std::string *err);

/** File convenience wrappers over the JSON forms. */
bool saveTrafficProfile(const std::string &path,
                        const TrafficProfile &profile);
bool loadTrafficProfile(const std::string &path,
                        TrafficProfile &profile, std::string *err);

/**
 * Largest board, in chips, that the router supports.  The route
 * table takes numChips^2 bytes (1 MiB at this size), and the Board
 * rejects larger grids at construction.
 */
inline constexpr uint32_t kMaxRoutedChips = 1024;

/**
 * Static next-hop table: for every (at, dst) chip pair, which
 * outgoing direction a packet at @p at takes toward @p dst.  It is
 * the Board's only routing function, and nscs_inspect walks the same
 * table for its static link loads, so the two cannot diverge.
 */
struct RouteTable
{
    /** nextDir value for at == dst and for pairs with no live path. */
    static constexpr uint8_t kNoRoute = 0xff;

    uint32_t boardW = 0;
    uint32_t boardH = 0;

    /** nextDir[at * numChips + dst]: a direction, or kNoRoute. */
    std::vector<uint8_t> nextDir;

    /**
     * (direction, next chip) one hop from @p at toward @p dst, or
     * {kNoRoute, at} when no live path connects them.  The table
     * names only links between chips of the grid, so the next chip
     * is @p at plus the direction's offset (E +1, W -1, N +boardW,
     * S -boardW): one table read and no division per hop.
     */
    std::pair<uint32_t, uint32_t>
    step(uint32_t at, uint32_t dst) const
    {
        const uint32_t n = boardW * boardH;
        if (at >= n || dst >= n || at == dst) [[unlikely]]
            badPair(at, dst);
        const uint32_t dir = nextDir[static_cast<size_t>(at) * n + dst];
        if (dir == kNoRoute)
            return {kNoRoute, at};
        const uint32_t offset = dir < 2 ? 1 : boardW;
        return {dir, dir & 1 ? at - offset : at + offset};
    }

  private:
    /** Panic on a step() pair off the grid or with at == dst. */
    [[noreturn]] void badPair(uint32_t at, uint32_t dst) const;
};

/**
 * Integer congestion weight per directed link, derived from the
 * profile's link loads: 16 + min(240, 16 * load / mean loaded-link
 * load), where load = packets + 4 * stalls (a stall wastes a full
 * tick of link budget, so it is weighted far above one forwarded
 * packet).  An unloaded fabric yields uniform weights.
 */
std::vector<uint64_t>
congestionLinkWeights(const TrafficProfile &profile);

/**
 * Build the route table of a @p bw x @p bh chip grid: per-destination
 * shortest paths over the live links, where link chip * 4 + dir costs
 * @p weights[link] (empty = uniform, i.e. hop count; a zero weight
 * counts as 1) and a nonzero @p dead[link] removes that one directed
 * link (empty = every link live).  Pairs with no live path get
 * kNoRoute.  Ties break deterministically: among equal-cost next hops
 * the first direction in E, W, N, S order wins, which under uniform
 * weights and no dead links is X-then-Y dimension-order routing.  The
 * grid must have 1..kMaxRoutedChips chips.
 */
RouteTable buildRouteTable(uint32_t bw, uint32_t bh,
                           const std::vector<uint64_t> &weights,
                           const std::vector<uint8_t> &dead);

} // namespace nscs

#endif // NSCS_BOARD_TRAFFIC_HH
