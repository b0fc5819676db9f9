/**
 * @file
 * A 5-port input-buffered mesh router with dimension-order routing.
 *
 * Ports: Local, North, East, South, West.  A packet routes X-first
 * (drain dx, then dy, then exit Local).  Each input port owns a small
 * FIFO; each output port has a round-robin arbiter over the input
 * ports whose head flit requests it.  One flit per output per cycle.
 *
 * The router holds state only; movement is coordinated by the Mesh so
 * that a global two-phase (compute, commit) step gives every router a
 * consistent pre-cycle view.
 */

#ifndef NSCS_NOC_ROUTER_HH
#define NSCS_NOC_ROUTER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "noc/packet.hh"

namespace nscs {

/** Router port indices. */
enum class Port : uint8_t {
    Local = 0,
    North = 1,
    East = 2,
    South = 3,
    West = 4,
};

/** Number of router ports. */
constexpr unsigned kNumPorts = 5;

/**
 * Dimension-order (X then Y) output port for a packet's remaining
 * offset.
 */
constexpr Port
routeOutput(const SpikePacket &p)
{
    if (p.dx > 0)
        return Port::East;
    if (p.dx < 0)
        return Port::West;
    if (p.dy > 0)
        return Port::North;
    if (p.dy < 0)
        return Port::South;
    return Port::Local;
}

/**
 * Update a packet's remaining offset for a traversal out of
 * @p out (no-op for Local).
 */
constexpr void
consumeHop(SpikePacket &p, Port out)
{
    switch (out) {
      case Port::East:  --p.dx; break;
      case Port::West:  ++p.dx; break;
      case Port::North: --p.dy; break;
      case Port::South: ++p.dy; break;
      case Port::Local: break;
    }
    if (out != Port::Local)
        ++p.hops;
}

/** Human-readable port name (tracing, tests). */
const char *portName(Port p);

/** Per-router state: five input FIFOs plus arbiter pointers. */
struct Router
{
    /** Input FIFO per port. */
    std::array<std::deque<SpikePacket>, kNumPorts> inBuf;

    /** Round-robin pointer per *output* port. */
    std::array<uint8_t, kNumPorts> rrPtr = {};

    /** True when every input FIFO is empty. */
    bool
    idle() const
    {
        for (const auto &q : inBuf)
            if (!q.empty())
                return false;
        return true;
    }
};

} // namespace nscs

#endif // NSCS_NOC_ROUTER_HH
