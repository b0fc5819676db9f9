/**
 * @file
 * Cycle-accurate 2-D mesh interconnect.
 *
 * A grid of 5-port routers (see noc/router.hh) wired so that router
 * (x, y)'s East output feeds router (x+1, y)'s West input and its
 * North output feeds (x, y+1)'s South input.  Each global cycle is a
 * two-phase step: every output port picks at most one head flit from
 * the input FIFOs requesting it (round-robin), checked against the
 * downstream FIFO's pre-cycle free space; all granted moves then
 * commit at once.  Each input FIFO has a unique upstream output, so
 * commits never conflict.
 *
 * Packets whose remaining offset reaches (0, 0) exit through the
 * Local port into the delivery list, which the chip drains into core
 * schedulers.  Injection enters the Local input FIFO and may fail
 * when the FIFO is full (the core retries next cycle — transmit
 * backpressure).
 */

#ifndef NSCS_NOC_MESH_HH
#define NSCS_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "noc/router.hh"
#include "util/stats.hh"

namespace nscs {

/** Mesh construction parameters. */
struct MeshParams
{
    uint32_t width = 1;      //!< routers in x
    uint32_t height = 1;     //!< routers in y
    uint32_t fifoDepth = 4;  //!< per-input-port FIFO capacity
};

/** A packet that exited its destination router's Local port. */
struct MeshDelivery
{
    uint32_t x = 0;          //!< destination router x
    uint32_t y = 0;          //!< destination router y
    SpikePacket packet;      //!< the delivered packet
    uint64_t cycle = 0;      //!< delivery cycle
};

/** Aggregate mesh statistics. */
struct MeshStats
{
    uint64_t injected = 0;       //!< accepted injections
    uint64_t injectStalls = 0;   //!< rejected injections (FIFO full)
    uint64_t delivered = 0;      //!< packets handed to Local
    uint64_t flitMoves = 0;      //!< router-to-router traversals
    uint64_t cycles = 0;         //!< stepCycle invocations
    RunningStat latency;         //!< inject->deliver cycles
    RunningStat hops;            //!< per-packet hop count
};

/** Document keys of the integer MeshStats fields. */
inline constexpr CounterField<MeshStats> kMeshStatsFields[] = {
    {"injected", &MeshStats::injected},
    {"injectStalls", &MeshStats::injectStalls},
    {"delivered", &MeshStats::delivered},
    {"flitMoves", &MeshStats::flitMoves},
    {"cycles", &MeshStats::cycles},
};

/** The interconnect fabric. */
class Mesh
{
  public:
    explicit Mesh(const MeshParams &params);

    /**
     * Offer a packet to router (@p x, @p y)'s Local input port.
     * @return false when the FIFO is full (caller must retry).
     */
    bool inject(uint32_t x, uint32_t y, const SpikePacket &pkt);

    /** Advance every router by one cycle. */
    void stepCycle();

    /**
     * Packets delivered so far and not yet drained; callers consume
     * and then call clearDeliveries().
     */
    const std::vector<MeshDelivery> &deliveries() const
    {
        return deliveries_;
    }

    /** Drop drained deliveries. */
    void clearDeliveries() { deliveries_.clear(); }

    /** True when no flit is buffered anywhere. */
    bool idle() const;

    /** Statistics. */
    const MeshStats &stats() const { return stats_; }

  private:
    uint32_t idx(uint32_t x, uint32_t y) const
    {
        return y * params_.width + x;
    }

    MeshParams params_;
    std::vector<Router> routers_;
    std::vector<MeshDelivery> deliveries_;
    MeshStats stats_;
    uint64_t cycle_ = 0;

    /** Scratch for the compute phase (granted moves). */
    struct Move
    {
        uint32_t router;   //!< source router index
        uint8_t inPort;    //!< source input port
        Port outPort;      //!< granted output port
    };
    std::vector<Move> moves_;
};

} // namespace nscs

#endif // NSCS_NOC_MESH_HH
