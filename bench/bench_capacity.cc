/**
 * @file
 * Experiment T1 — architecture capacity & simulator footprint
 * (Akopyan'15 Table I shape).
 *
 * For a sweep of chip sizes, reports the architectural capacity
 * (cores, neurons, synapses, axons, scheduler depth, packet bits)
 * plus the simulator-side cost: model bytes per core and chip build
 * time.  Crossbars are populated at 50% to measure realistic model
 * footprints.
 *
 * Checked shape: cores, neurons and axons are the grid times the core
 * geometry, the 64x64 row is the published chip, the packet is 30
 * bits and bytes per core stay flat from 8x8 up.  Build time is
 * printed, not checked.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/shape.hh"
#include "chip/chip.hh"
#include "noc/packet.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

namespace {

std::vector<CoreConfig>
populatedCores(uint32_t n, uint64_t seed)
{
    Xoshiro256 rng(seed);
    CoreGeometry geom;
    std::vector<CoreConfig> cores;
    cores.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
        CoreConfig cfg = CoreConfig::make(geom);
        for (uint32_t a = 0; a < geom.numAxons; ++a)
            for (uint32_t j = 0; j < geom.numNeurons; ++j)
                if (rng.chance(0.5))
                    cfg.connect(a, j);
        cores.push_back(std::move(cfg));
    }
    return cores;
}

} // namespace

int
main()
{
    std::cout <<
        "== T1: architecture capacity and simulator footprint ==\n"
        "(shape target: Akopyan'15 Table I; columns scale linearly\n"
        " in core count, packet stays 30 bits)\n\n";

    CoreGeometry geom;
    std::cout << "core geometry: " << geom.numAxons << " axons x "
              << geom.numNeurons << " neurons x " << geom.delaySlots
              << " delay slots; spike packet = "
              << packetWireBits() << " wire bits\n\n";

    /** What the chip reports for one grid size. */
    struct Row
    {
        uint32_t side;
        uint64_t cores, neurons, axons, synapses, bytes;
    };
    std::vector<Row> rows;
    TextTable t({"grid", "cores", "neurons", "synapses(50%)",
                 "axons", "bytes/core", "chip RAM", "build ms"});
    for (uint32_t side : {1u, 8u, 16u, 32u, 64u}) {
        uint32_t n = side * side;
        auto t0 = std::chrono::steady_clock::now();
        auto cores = populatedCores(n, 42);
        ChipParams cp;
        cp.width = side;
        cp.height = side;
        Chip chip(cp, std::move(cores));
        auto t1 = std::chrono::steady_clock::now();

        // The capacity columns come from the chip, so the checks
        // below compare what it built with the grid and geometry.
        Row r{side, chip.numCores(), chip.energyEvents().neurons,
              uint64_t{chip.numCores()} * chip.params().coreGeom.numAxons,
              0, chip.footprintBytes()};
        // synapseCount() is cached at crossbar construction, so this
        // sweep no longer rescans every bitmap per sample.
        for (uint32_t c = 0; c < chip.numCores(); ++c)
            r.synapses += chip.core(c).crossbar().synapseCount();
        double ms = std::chrono::duration<double, std::milli>(
            t1 - t0).count();

        t.addRow({std::to_string(side) + "x" + std::to_string(side),
                  fmtInt(r.cores),
                  fmtInt(r.neurons),
                  fmtInt(r.synapses),
                  fmtInt(r.axons),
                  fmtBytes(r.bytes / n),
                  fmtBytes(r.bytes),
                  fmtF(ms, 1)});
        rows.push_back(r);
    }
    std::cout << t.str() << "\n";

    std::cout << "reference point: the published chip is 64x64 cores"
                 " = 4,096 cores, 1,048,576 neurons,\n268,435,456"
                 " synapse sites; the simulator reproduces the same"
                 " capacity in RAM.\n";

    shapeCheck(packetWireBits() == 30, "the spike packet is " +
               std::to_string(packetWireBits()) + " bits, not 30");
    double min_per_core = 0, max_per_core = 0;
    for (const Row &r : rows) {
        const uint64_t n = uint64_t{r.side} * r.side;
        const std::string grid =
            std::to_string(r.side) + "x" + std::to_string(r.side);
        shapeCheck(r.cores == n && r.neurons == n * geom.numNeurons &&
                       r.axons == n * geom.numAxons,
                   grid + ": cores, neurons or axons are not the grid "
                   "times the core geometry");
        // Each site is connected with probability 0.5, and every row
        // lands within 0.1% of half its sites: 1% is a wide margin.
        const double half_sites = 0.5 * static_cast<double>(r.neurons) *
            geom.numAxons;
        shapeCheck(std::abs(static_cast<double>(r.synapses) -
                            half_sites) <= 0.01 * half_sites,
                   grid + ": " + fmtInt(r.synapses) +
                   " synapses is not within 1% of half the sites");
        // Bytes per core read 25.82, 25.75, 25.74 and 25.74 KiB from
        // 8x8 to 64x64, a 0.3% spread; the 1x1 chip is left out, as
        // the fixed chip overhead dominates it.
        if (r.side >= 8) {
            const double per_core = static_cast<double>(r.bytes) / n;
            min_per_core = min_per_core == 0
                ? per_core : std::min(min_per_core, per_core);
            max_per_core = std::max(max_per_core, per_core);
        }
    }
    const Row &full = rows.back();
    shapeCheck(full.cores == 4096 && full.neurons == 1048576 &&
                   full.neurons * geom.numAxons == 268435456,
               "64x64 is not the published 4,096 cores, 1,048,576 "
               "neurons and 268,435,456 synapse sites");
    shapeCheck(max_per_core <= 1.01 * min_per_core,
               "bytes per core range from " + fmtF(min_per_core, 0) +
               " to " + fmtF(max_per_core, 0) +
               " from 8x8 to 64x64, more than 1%");
    return shapeOk();
}
