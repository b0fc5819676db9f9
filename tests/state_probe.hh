/**
 * @file
 * Test-side reads of device state that the library exposes through
 * settledPotential, span iteration and the snapshot documents rather
 * than through accessors of its own, and a run that checks the
 * device's invariants after every tick.
 */

#ifndef NSCS_TESTS_STATE_PROBE_HH
#define NSCS_TESTS_STATE_PROBE_HH

#include <cstdint>
#include <string>

#include "board/board.hh"
#include "chip/chip.hh"
#include "core/core.hh"
#include "runtime/simulator.hh"
#include "util/bitvec.hh"
#include "util/json.hh"

namespace nscs {

/** Raw membrane potential of neuron @p n in lane @p inst as of
 *  core.doneThrough(). */
inline int32_t
potentialOf(const Core &core, uint32_t n, uint32_t inst = 0)
{
    return core.settledPotential(n, core.doneThrough(), inst);
}

/** Backing word @p w of @p bits, rebuilt from its set bits. */
inline uint64_t
wordOf(const BitSpan &bits, size_t w)
{
    uint64_t word = 0;
    bits.forEachSet([&](size_t i) {
        if (i / 64 == w)
            word |= 1ull << (i % 64);
    });
    return word;
}

/** Crossbar words the faults currently override in @p core. */
inline size_t
xbarOverrides(const Core &core)
{
    JsonValue state;
    core.saveState(state, core.doneThrough());
    return state.at("xbarOverrides").size();
}

/** True when fault injection has killed core @p c of @p chip. */
inline bool
coreKilled(const Chip &chip, uint32_t c)
{
    JsonValue state;
    chip.saveState(state);
    return state.at("coreDead").at(c).asInt() != 0;
}

/** True when fault injection has killed board link @p link. */
inline bool
linkKilled(const Board &board, uint32_t link)
{
    JsonValue state;
    board.saveState(state);
    return state.at("linkDead").at(link).asInt() != 0;
}

/** Packets a board snapshot's @p device document holds parked in the
 *  stall queue of @p link (packet field 5). */
inline int64_t
parkedPackets(const JsonValue &device, int64_t link)
{
    const JsonValue &pending = device.at("pending");
    int64_t parked = 0;
    for (size_t b = 0; b < pending.size(); ++b) {
        const JsonValue &flat = pending.at(b).at("packets");
        for (size_t i = 5; i < flat.size(); i += 11)
            parked += flat.at(i).asInt() == link;
    }
    return parked;
}

/** Run @p sim @p ticks ticks, one at a time, and return the first
 *  rule its device's checkInvariants() reports broken after a tick,
 *  with that tick, or "" when every tick keeps them all. */
inline std::string
runChecked(Simulator &sim, uint64_t ticks)
{
    for (uint64_t i = 0; i < ticks; ++i) {
        sim.run(1);
        const std::string rule = sim.isBoard()
            ? sim.board().checkInvariants()
            : sim.chip().checkInvariants();
        if (!rule.empty())
            return "after tick " + std::to_string(sim.now() - 1) + ": " +
                rule;
    }
    return "";
}

} // namespace nscs

#endif // NSCS_TESTS_STATE_PROBE_HH
