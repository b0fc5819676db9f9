/**
 * @file
 * Traffic profile serialization and the congestion-aware route
 * table.  See traffic.hh for the contracts.
 */

#include "board/traffic.hh"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "util/json.hh"
#include "util/logging.hh"

namespace nscs {

namespace {

constexpr const char *kFormat = "nscs-traffic";
constexpr int64_t kVersion = 1;

/**
 * Counters are emitted as plain JSON integers: they count spikes and
 * packets of finite runs, far below the 2^53 exact-integer ceiling.
 */
JsonValue
count(uint64_t v)
{
    return JsonValue::integer(static_cast<int64_t>(v));
}

/** Neighbor of @p chip one hop in @p dir, or numChips when off-board. */
uint32_t
linkNeighbor(uint32_t chip, uint32_t dir, uint32_t bw, uint32_t bh)
{
    const uint32_t x = chip % bw;
    const uint32_t y = chip / bw;
    switch (dir) {
    case 0:  // East
        return x + 1 < bw ? chip + 1 : bw * bh;
    case 1:  // West
        return x > 0 ? chip - 1 : bw * bh;
    case 2:  // North
        return y + 1 < bh ? chip + bw : bw * bh;
    default:  // South
        return y > 0 ? chip - bw : bw * bh;
    }
}

} // namespace

void
RouteTable::badPair(uint32_t at, uint32_t dst) const
{
    panic("RouteTable::step: bad chip pair (%u, %u) on a %ux%u grid",
          at, dst, boardW, boardH);
}

JsonValue
trafficProfileToJson(const TrafficProfile &profile)
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::string(kFormat));
    doc.set("version", JsonValue::integer(kVersion));
    doc.set("boardWidth", count(profile.boardW));
    doc.set("boardHeight", count(profile.boardH));
    doc.set("chipWidth", count(profile.chipW));
    doc.set("chipHeight", count(profile.chipH));
    doc.set("ticks", count(profile.ticks));
    doc.set("egressSpikes", count(profile.egressSpikes));

    // Sparse flat triples (src chip, dst chip, spikes).
    JsonValue pairs = JsonValue::array();
    const uint64_t n = profile.numChips();
    if (!profile.pairSpikes.empty()) {
        NSCS_ASSERT(profile.pairSpikes.size() ==
                        static_cast<size_t>(n) * n,
                    "traffic profile: pair matrix size mismatch");
        for (uint32_t s = 0; s < n; ++s)
            for (uint32_t d = 0; d < n; ++d) {
                const uint64_t v = profile.pairSpikes[s * n + d];
                if (v == 0)
                    continue;
                pairs.append(count(s));
                pairs.append(count(d));
                pairs.append(count(v));
            }
    }
    doc.set("pairs", std::move(pairs));

    // Sparse flat quads (link, packets, stalls, drops).
    JsonValue links = JsonValue::array();
    if (!profile.links.empty()) {
        NSCS_ASSERT(profile.links.size() == static_cast<size_t>(n) * 4,
                    "traffic profile: link table size mismatch");
        for (uint32_t l = 0; l < n * 4; ++l) {
            const TrafficLinkLoad &ll = profile.links[l];
            if (ll.packets == 0 && ll.stalls == 0 && ll.drops == 0)
                continue;
            links.append(count(l));
            links.append(count(ll.packets));
            links.append(count(ll.stalls));
            links.append(count(ll.drops));
        }
    }
    doc.set("links", std::move(links));

    // Sparse flat triples (src cell, dst cell, spikes).
    JsonValue cells = JsonValue::array();
    for (uint32_t s = 0; s < profile.cells.size(); ++s)
        for (const auto &[d, v] : profile.cells[s]) {
            cells.append(count(s));
            cells.append(count(d));
            cells.append(count(v));
        }
    doc.set("cells", std::move(cells));
    return doc;
}

bool
trafficProfileFromJson(const JsonValue &doc, TrafficProfile &profile,
                       std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    if (doc.type() != JsonValue::Type::Object)
        return fail("traffic profile: document is not an object");
    std::string format;
    if (!readString(doc, "format", format) || format != kFormat)
        return fail("traffic profile: missing format tag '" +
                    std::string(kFormat) + "'");
    int64_t version = 0;
    if (!readInt(doc, "version", version) || version != kVersion)
        return fail("traffic profile: unsupported version");

    profile = TrafficProfile{};
    for (auto [key, dst] : {std::pair{"boardWidth", &profile.boardW},
                            std::pair{"boardHeight", &profile.boardH},
                            std::pair{"chipWidth", &profile.chipW},
                            std::pair{"chipHeight", &profile.chipH}})
        if (!readInt(doc, key, *dst, 1))
            return fail(std::string("traffic profile: '") + key +
                        "' is not a positive dimension");
    for (auto [key, dst] : {std::pair{"ticks", &profile.ticks},
                            std::pair{"egressSpikes", &profile.egressSpikes}})
        if (doc.has(key) && !readInt(doc, key, *dst))
            return fail(std::string("traffic profile: malformed '") +
                        key + "'");
    // No Board routes more chips, and cell indices are uint32 (the
    // per-chip bound keeps numCells() from wrapping).
    if (profile.numChips() > kMaxRoutedChips)
        return fail("traffic profile: more than " +
                    std::to_string(kMaxRoutedChips) + " chips");
    if (uint64_t{profile.chipW} * profile.chipH > UINT32_MAX ||
        profile.numCells() > UINT32_MAX)
        return fail("traffic profile: cell count does not fit 32 bits");

    // Flat (src, dst, spikes) triples and (link, packets, stalls,
    // drops) quads, every index below its table's size.
    std::vector<uint64_t> pairs, links, cellTriples;
    if ((doc.has("pairs") && !readInts(doc.at("pairs"), pairs)) ||
        (doc.has("links") && !readInts(doc.at("links"), links)) ||
        (doc.has("cells") && !readInts(doc.at("cells"), cellTriples)) ||
        pairs.size() % 3 != 0 || links.size() % 4 != 0 ||
        cellTriples.size() % 3 != 0)
        return fail("traffic profile: malformed 'pairs', 'links' or "
                    "'cells' array");
    const uint64_t n = profile.numChips();
    profile.pairSpikes.assign(n * n, 0);
    for (size_t i = 0; i < pairs.size(); i += 3) {
        if (pairs[i] >= n || pairs[i + 1] >= n)
            return fail("traffic profile: chip index out of range");
        profile.pairSpikes[pairs[i] * n + pairs[i + 1]] = pairs[i + 2];
    }
    profile.links.assign(n * 4, {});
    for (size_t i = 0; i < links.size(); i += 4) {
        if (links[i] >= n * 4)
            return fail("traffic profile: link index out of range");
        profile.links[links[i]] = {links[i + 1], links[i + 2],
                                   links[i + 3]};
    }
    const uint64_t cells = profile.numCells();
    profile.cells.assign(cells, {});
    for (size_t i = 0; i < cellTriples.size(); i += 3) {
        if (cellTriples[i] >= cells || cellTriples[i + 1] >= cells)
            return fail("traffic profile: cell index out of range");
        profile.cells[cellTriples[i]]
                     [static_cast<uint32_t>(cellTriples[i + 1])] =
            cellTriples[i + 2];
    }
    return true;
}

bool
saveTrafficProfile(const std::string &path,
                   const TrafficProfile &profile)
{
    return writeFile(path, trafficProfileToJson(profile).dump(2) +
                               "\n");
}

bool
loadTrafficProfile(const std::string &path, TrafficProfile &profile,
                   std::string *err)
{
    std::string text;
    if (!readFile(path, text)) {
        if (err)
            *err = "cannot read '" + path + "'";
        return false;
    }
    JsonParseResult parsed = parseJson(text);
    if (!parsed.ok) {
        if (err)
            *err = parsed.error;
        return false;
    }
    return trafficProfileFromJson(parsed.value, profile, err);
}

std::vector<uint64_t>
congestionLinkWeights(const TrafficProfile &profile)
{
    const uint64_t n = profile.numChips();
    std::vector<uint64_t> weights(static_cast<size_t>(n) * 4, 16);
    if (profile.links.size() != weights.size())
        return weights;

    // Mean load over on-board links that saw any traffic; unloaded
    // links keep the base weight so cold paths stay attractive.
    uint64_t total = 0;
    uint64_t loaded = 0;
    std::vector<uint64_t> load(weights.size(), 0);
    for (uint32_t l = 0; l < weights.size(); ++l) {
        const TrafficLinkLoad &ll = profile.links[l];
        load[l] = ll.packets + 4 * ll.stalls;
        if (load[l] > 0) {
            total += load[l];
            ++loaded;
        }
    }
    if (loaded == 0)
        return weights;
    const uint64_t mean = std::max<uint64_t>(1, total / loaded);
    for (uint32_t l = 0; l < weights.size(); ++l)
        weights[l] = 16 + std::min<uint64_t>(240, load[l] * 16 / mean);
    return weights;
}

RouteTable
buildRouteTable(uint32_t bw, uint32_t bh,
                const std::vector<uint64_t> &weights,
                const std::vector<uint8_t> &dead)
{
    const uint32_t n = bw * bh;
    NSCS_ASSERT(n >= 1 && n <= kMaxRoutedChips,
                "route table for %ux%u chips (1..%u supported)", bw, bh,
                kMaxRoutedChips);
    const size_t links = static_cast<size_t>(n) * 4;
    NSCS_ASSERT(weights.empty() || weights.size() == links,
                "route table: %zu link weights for %zu links",
                weights.size(), links);
    NSCS_ASSERT(dead.empty() || dead.size() == links,
                "route table: %zu dead-link flags for %zu links",
                dead.size(), links);

    RouteTable table;
    table.boardW = bw;
    table.boardH = bh;
    table.nextDir.assign(static_cast<size_t>(n) * n,
                         RouteTable::kNoRoute);

    // Cost of the live link v -> neighbor along dir; 0 = no edge.
    const auto cost = [&](uint32_t v, uint32_t dir) -> uint64_t {
        const size_t link = static_cast<size_t>(v) * 4 + dir;
        if (linkNeighbor(v, dir, bw, bh) >= n ||
            (!dead.empty() && dead[link]))
            return 0;
        return weights.empty() ? 1 : std::max<uint64_t>(1, weights[link]);
    };

    constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
    using Entry = std::pair<uint64_t, uint32_t>;  // (dist, chip)
    const std::greater<Entry> later;  // min-heap order
    std::vector<uint64_t> dist(n);
    std::vector<Entry> frontier;

    // Per-destination shortest path to dst.  A hop v -> u costs v's
    // outgoing link, so Dijkstra from dst over *incoming* links gives
    // dist[v] = cheapest v -> dst cost.  Shortest distances do not
    // depend on the settle order, so neither does the table below.
    for (uint32_t dst = 0; dst < n; ++dst) {
        std::fill(dist.begin(), dist.end(), kInf);
        dist[dst] = 0;
        frontier.assign(1, {0, dst});
        while (!frontier.empty()) {
            std::pop_heap(frontier.begin(), frontier.end(), later);
            const auto [d, u] = frontier.back();
            frontier.pop_back();
            if (d != dist[u])
                continue;  // stale entry
            // Relax every neighbor v with a live edge v -> u: v -> u
            // along dir means u -> v along dir ^ 1 (the direction
            // encoding pairs E/W and N/S).
            for (uint32_t dir = 0; dir < 4; ++dir) {
                const uint32_t v = linkNeighbor(u, dir ^ 1, bw, bh);
                if (v >= n)
                    continue;
                const uint64_t w = cost(v, dir);
                if (w != 0 && d + w < dist[v]) {
                    dist[v] = d + w;
                    frontier.push_back({dist[v], v});
                    std::push_heap(frontier.begin(), frontier.end(),
                                   later);
                }
            }
        }
        // First direction in E, W, N, S order that lies on a
        // shortest path wins.
        for (uint32_t v = 0; v < n; ++v) {
            if (v == dst || dist[v] == kInf)
                continue;
            for (uint32_t dir = 0; dir < 4; ++dir) {
                const uint64_t w = cost(v, dir);
                if (w == 0)
                    continue;
                const uint64_t rest = dist[linkNeighbor(v, dir, bw, bh)];
                if (rest != kInf && rest + w == dist[v]) {
                    table.nextDir[static_cast<size_t>(v) * n + dst] =
                        static_cast<uint8_t>(dir);
                    break;
                }
            }
        }
    }
    return table;
}

} // namespace nscs
