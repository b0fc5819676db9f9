/**
 * @file
 * Experiment F5 — interconnect characterisation.
 *
 * Part 1: mean/P99 packet latency and delivered throughput vs
 * offered load under uniform-random traffic on a 16x16 mesh — the
 * classic latency/throughput curve with a saturation knee.
 *
 * Part 2: unloaded latency vs hop distance — linear, one cycle per
 * hop plus local ejection.
 *
 * Checked shape: below saturation the mesh delivers what is offered
 * at a flat latency, past the knee it saturates, and the unloaded
 * latency is exactly hops + 1 cycles.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/shape.hh"
#include "noc/mesh.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

int
main()
{
    std::cout <<
        "== F5: NoC latency/throughput characterisation ==\n"
        "(shape target: flat latency at low load, knee near\n"
        " saturation; latency linear in hop distance)\n\n";

    const uint32_t side = 16;
    const uint64_t cycles = 4000;
    const uint64_t warmup = 500;

    std::cout << "part 1: uniform random traffic, " << side << "x"
              << side << " mesh, " << cycles << " cycles\n\n";

    /** One offered load's measurements. */
    struct Row
    {
        double offered, delivered, meanLatency;
    };
    std::vector<Row> rows;
    TextTable t({"offered(flits/node/cyc)", "delivered", "mean lat",
                 "p99 lat", "stalls"});

    for (double load : {0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.35}) {
        Mesh mesh({side, side, 4});
        Xoshiro256 rng(1234);
        Histogram lat(0, 400, 200);
        uint64_t delivered = 0;

        for (uint64_t cyc = 0; cyc < cycles; ++cyc) {
            for (uint32_t y = 0; y < side; ++y) {
                for (uint32_t x = 0; x < side; ++x) {
                    if (!rng.chance(load))
                        continue;
                    SpikePacket p;
                    auto tx = static_cast<uint32_t>(rng.below(side));
                    auto ty = static_cast<uint32_t>(rng.below(side));
                    p.dx = static_cast<int16_t>(
                        static_cast<int32_t>(tx) -
                        static_cast<int32_t>(x));
                    p.dy = static_cast<int16_t>(
                        static_cast<int32_t>(ty) -
                        static_cast<int32_t>(y));
                    mesh.inject(x, y, p);  // drop on stall
                }
            }
            mesh.stepCycle();
            for (const MeshDelivery &d : mesh.deliveries()) {
                ++delivered;
                if (cyc >= warmup)
                    lat.add(static_cast<double>(
                        d.cycle - d.packet.injectCycle + 1));
            }
            mesh.clearDeliveries();
        }

        double per_node_cyc = static_cast<double>(delivered) /
            static_cast<double>(cycles) / (side * side);
        t.addRow({fmtF(load, 3),
                  fmtF(per_node_cyc, 3),
                  fmtF(lat.mean(), 1),
                  fmtF(lat.quantile(0.99), 1),
                  fmtInt(mesh.stats().injectStalls)});
        rows.push_back({load, per_node_cyc, lat.mean()});
    }
    std::cout << t.str() << "\n";

    std::cout << "part 2: unloaded latency vs hop distance (8x8)\n\n";
    TextTable t2({"hops", "latency(cycles)"});
    std::vector<uint64_t> unloaded;
    for (uint32_t d = 0; d <= 7; ++d) {
        Mesh mesh({8, 8, 4});
        SpikePacket p;
        p.dx = static_cast<int16_t>(d);
        mesh.inject(0, 0, p);
        uint64_t cyc = 0;
        while (mesh.deliveries().empty()) {
            mesh.stepCycle();
            ++cyc;
        }
        t2.addRow({std::to_string(d), fmtInt(cyc)});
        unloaded.push_back(cyc);
    }
    std::cout << t2.str();

    // Unloaded, a packet takes one cycle per hop plus local ejection.
    for (uint32_t d = 0; d < unloaded.size(); ++d)
        shapeCheck(unloaded[d] == d + 1,
                   std::to_string(d) + " hops take " +
                   std::to_string(unloaded[d]) + " cycles, not " +
                   std::to_string(d + 1));
    // Up to 0.1 the mesh delivers what is offered: within 2.2% today
    // (injections in the last cycles are still in flight), checked
    // at 5%.  Its mean latency stays flat: 12.5 cycles at 0.1 against
    // 11.7 at 0.005, 7% apart, checked at 10%.
    const Row &light = rows.front();
    for (const Row &r : rows) {
        if (r.offered > 0.1)
            continue;
        shapeCheck(std::abs(r.delivered - r.offered) <= 0.05 * r.offered,
                   "offered " + fmtF(r.offered, 3) + ", the mesh "
                   "delivers " + fmtF(r.delivered, 4));
        shapeCheck(r.meanLatency <= 1.1 * light.meanLatency,
                   "mean latency " + fmtF(r.meanLatency, 2) + " at " +
                   fmtF(r.offered, 3) + " is over 10% above the " +
                   fmtF(light.meanLatency, 2) + " at " +
                   fmtF(light.offered, 3));
    }
    // Past the knee delivery saturates: 0.190 of 0.35 offered today.
    const Row &heavy = rows.back();
    shapeCheck(heavy.delivered < 0.6 * heavy.offered,
               "offered " + fmtF(heavy.offered, 2) + ", the mesh "
               "delivers " + fmtF(heavy.delivered, 3) +
               ", not under 0.6x: no saturation");
    return shapeOk();
}
