#include "noc/mesh.hh"

#include "util/logging.hh"

namespace nscs {

namespace {

/** The input port a flit lands on after leaving through @p out. */
Port
oppositePort(Port out)
{
    switch (out) {
      case Port::North: return Port::South;
      case Port::South: return Port::North;
      case Port::East:  return Port::West;
      case Port::West:  return Port::East;
      case Port::Local: break;
    }
    panic("oppositePort(Local)");
}

} // anonymous namespace

Mesh::Mesh(const MeshParams &params)
    : params_(params)
{
    NSCS_ASSERT(params_.width > 0 && params_.height > 0,
                "empty mesh %ux%u", params_.width, params_.height);
    NSCS_ASSERT(params_.fifoDepth > 0, "mesh fifoDepth must be > 0");
    routers_.resize(static_cast<size_t>(params_.width) * params_.height);
}

bool
Mesh::inject(uint32_t x, uint32_t y, const SpikePacket &pkt)
{
    NSCS_ASSERT(x < params_.width && y < params_.height,
                "inject at (%u, %u) outside %ux%u mesh",
                x, y, params_.width, params_.height);
    auto &fifo = routers_[idx(x, y)]
        .inBuf[static_cast<size_t>(Port::Local)];
    if (fifo.size() >= params_.fifoDepth) {
        ++stats_.injectStalls;
        return false;
    }
    SpikePacket p = pkt;
    p.injectCycle = cycle_;
    fifo.push_back(p);
    ++stats_.injected;
    return true;
}

void
Mesh::stepCycle()
{
    moves_.clear();

    // Phase 1: every output port grants at most one requesting input,
    // judged against pre-cycle downstream occupancy.
    const uint32_t w = params_.width;
    const uint32_t h = params_.height;
    for (uint32_t y = 0; y < h; ++y) {
        for (uint32_t x = 0; x < w; ++x) {
            uint32_t r = idx(x, y);
            Router &router = routers_[r];
            for (unsigned o = 0; o < kNumPorts; ++o) {
                Port out = static_cast<Port>(o);

                // Downstream space check.
                if (out != Port::Local) {
                    uint32_t nx = x, ny = y;
                    switch (out) {
                      case Port::North: ny = y + 1; break;
                      case Port::South: ny = y - 1; break;
                      case Port::East:  nx = x + 1; break;
                      case Port::West:  nx = x - 1; break;
                      case Port::Local: break;
                    }
                    if (nx >= w || ny >= h) {
                        // No neighbour: nothing can request an edge
                        // exit (validated configs keep packets on
                        // grid), so just skip the port.
                        continue;
                    }
                    const auto &down = routers_[idx(nx, ny)]
                        .inBuf[static_cast<size_t>(oppositePort(out))];
                    if (down.size() >= params_.fifoDepth)
                        continue;
                }

                // Round-robin over requesting inputs.
                for (unsigned k = 0; k < kNumPorts; ++k) {
                    unsigned i = (router.rrPtr[o] + k) % kNumPorts;
                    const auto &fifo = router.inBuf[i];
                    if (fifo.empty())
                        continue;
                    if (routeOutput(fifo.front()) != out)
                        continue;
                    moves_.push_back({r, static_cast<uint8_t>(i), out});
                    router.rrPtr[o] =
                        static_cast<uint8_t>((i + 1) % kNumPorts);
                    break;
                }
            }
        }
    }

    // Phase 2: commit all granted moves.
    for (const Move &m : moves_) {
        Router &router = routers_[m.router];
        auto &fifo = router.inBuf[m.inPort];
        NSCS_ASSERT(!fifo.empty(), "granted move from empty FIFO");
        SpikePacket pkt = fifo.front();
        fifo.pop_front();
        uint32_t x = m.router % params_.width;
        uint32_t y = m.router / params_.width;
        if (m.outPort == Port::Local) {
            ++stats_.delivered;
            stats_.latency.add(
                static_cast<double>(cycle_ - pkt.injectCycle + 1));
            stats_.hops.add(static_cast<double>(pkt.hops));
            deliveries_.push_back({x, y, pkt, cycle_});
            continue;
        }
        consumeHop(pkt, m.outPort);
        uint32_t nx = x, ny = y;
        switch (m.outPort) {
          case Port::North: ny = y + 1; break;
          case Port::South: ny = y - 1; break;
          case Port::East:  nx = x + 1; break;
          case Port::West:  nx = x - 1; break;
          case Port::Local: break;
        }
        NSCS_ASSERT(nx < params_.width && ny < params_.height,
                    "packet routed off-grid at (%u, %u) via %s",
                    x, y, portName(m.outPort));
        routers_[idx(nx, ny)]
            .inBuf[static_cast<size_t>(oppositePort(m.outPort))]
            .push_back(pkt);
        ++stats_.flitMoves;
    }

    ++cycle_;
    ++stats_.cycles;
}

bool
Mesh::idle() const
{
    for (const auto &r : routers_)
        if (!r.idle())
            return false;
    return true;
}

} // namespace nscs
