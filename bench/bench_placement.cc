/**
 * @file
 * Ablation A1 — placement policy (tool-flow ablation).
 *
 * Compiles a clustered logical network (chains of populations with
 * heavy intra-chain traffic) under the three placement policies and
 * reports placement cost, mean destination hop distance, measured
 * mesh latency (cycle-accurate transport) and the interconnect
 * energy share.
 *
 * Expected shape: traffic-aware placement cuts mean hops and
 * interconnect energy versus row-major; annealing refines greedy.
 * Checked shape: greedy-bfs and anneal each come in below row-major
 * on mean hops, mesh latency and hop-energy share.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench/shape.hh"
#include "prog/compiler.hh"
#include "prog/network.hh"
#include "runtime/simulator.hh"
#include "util/table.hh"

using namespace nscs;
using namespace nscs::bench;

namespace {

/** Chains of relay populations: strong, structured locality. */
Network
clusteredNetwork()
{
    Network net;
    NeuronParams relay;
    relay.threshold = 1;
    NeuronParams pacemaker;
    pacemaker.leak = 1;
    pacemaker.threshold = 10;

    const uint32_t chains = 12, length = 6, width = 24;
    for (uint32_t c = 0; c < chains; ++c) {
        PopId prev = net.addPopulation(
            "drv" + std::to_string(c), width, pacemaker);
        for (uint32_t l = 0; l < length; ++l) {
            PopId next = net.addPopulation(
                "ch" + std::to_string(c) + "_" + std::to_string(l),
                width, relay);
            net.connectOneToOne(prev, next, 0, 1);
            prev = next;
        }
    }
    return net;
}

} // namespace

/** One policy's row of the table. */
struct PolicyResult
{
    PlacementPolicy policy;
    double meanHops = 0;
    double meshLatency = 0;
    double hopShare = 0;
};

int
main()
{
    std::cout <<
        "== A1: placement policy ablation ==\n"
        "(shape target: traffic-aware placement cuts hops, mesh\n"
        " latency and interconnect energy vs naive row-major)\n\n";

    TextTable t({"policy", "place cost", "mean hops", "mesh lat",
                 "hop energy share"});
    std::vector<PolicyResult> results;

    for (auto policy : {PlacementPolicy::RowMajor,
                        PlacementPolicy::GreedyBfs,
                        PlacementPolicy::Anneal}) {
        Network net = clusteredNetwork();
        CompileOptions opt;
        opt.geom.numNeurons = 32;
        opt.geom.numAxons = 64;
        opt.placement = policy;
        opt.placerSeed = 5;
        CompiledModel model = compile(net, opt);

        // Re-derive the placement cost from the compiled offsets.
        double place_cost = 0;
        for (const auto &cfg : model.cores)
            for (const auto &d : cfg.dests)
                if (d.kind == NeuronDest::Kind::Core)
                    place_cost += std::abs(d.dx) + std::abs(d.dy);

        ChipParams cp;
        cp.width = model.gridWidth;
        cp.height = model.gridHeight;
        cp.coreGeom = model.geom;
        cp.noc = NocModel::Cycle;
        Simulator sim(cp, model.cores);
        sim.run(100);

        const MeshStats *ms = sim.chip().meshStats();
        EnergyBreakdown b = sim.chip().energy();
        results.push_back({policy, model.stats.meanDestHops,
                           ms->latency.mean(), b.hopJ / b.totalJ()});
        t.addRow({placementPolicyName(policy),
                  fmtF(place_cost, 0),
                  fmtF(model.stats.meanDestHops, 2),
                  fmtF(ms->latency.mean(), 1),
                  fmtF(100.0 * b.hopJ / b.totalJ(), 2) + "%"});
    }
    std::cout << t.str() << "\n";
    std::cout << "(12 pacemaker-driven relay chains; traffic is "
                 "chain-local, so locality-aware\n placement wins; "
                 "mesh latency measured on the cycle-accurate "
                 "transport)\n";
    const PolicyResult &row_major = results.front();
    for (size_t i = 1; i < results.size(); ++i) {
        const PolicyResult &r = results[i];
        const struct { const char *name; double got, base; } metrics[] = {
            {"mean hops", r.meanHops, row_major.meanHops},
            {"mesh latency", r.meshLatency, row_major.meshLatency},
            {"hop energy share", r.hopShare, row_major.hopShare},
        };
        for (const auto &m : metrics)
            shapeCheck(m.got < m.base,
                       std::string(placementPolicyName(r.policy)) + " " +
                       m.name + " " + fmtF(m.got, 4) +
                       " is not below row-major's " + fmtF(m.base, 4));
    }
    return shapeOk();
}
