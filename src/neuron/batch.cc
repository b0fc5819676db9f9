#include "neuron/batch.hh"

#include <algorithm>

#include "neuron/neuron.hh"
#include "util/logging.hh"
#include "util/saturate.hh"
#include "util/simd.hh"

namespace nscs {

void
UpdateLanes::build(const std::vector<NeuronParams> &params)
{
    const size_t n = params.size();
    leak.resize(n);
    revSel.resize(n);
    thr.resize(n);
    negLim.resize(n);
    posMul.resize(n);
    posAdd.resize(n);
    negMul.resize(n);
    negAdd.resize(n);
    lo.resize(n);
    hi.resize(n);
    stoch.clear();
    narrow = true;

    for (size_t j = 0; j < n; ++j) {
        const NeuronParams &p = params[j];
        PotentialRange r = potentialRange(p);
        lo[j] = r.lo;
        hi[j] = r.hi;
        leak[j] = p.leak;
        revSel[j] = p.leakReversal ? 1 : 0;
        thr[j] = p.threshold;
        negLim[j] = -p.negThreshold;
        switch (p.resetMode) {
          case ResetMode::Store:
            posMul[j] = 0;
            posAdd[j] = p.resetPotential;
            break;
          case ResetMode::Linear:
            posMul[j] = 1;
            posAdd[j] = -p.threshold;
            break;
          case ResetMode::None:
            posMul[j] = 1;
            posAdd[j] = 0;
            break;
        }
        if (p.negSaturate) {
            negMul[j] = 0;
            negAdd[j] = -p.negThreshold;
        } else {
            switch (p.resetMode) {
              case ResetMode::Store:
                negMul[j] = 0;
                negAdd[j] = satClamp(
                    -static_cast<int64_t>(p.resetPotential),
                    p.potentialBits);
                break;
              case ResetMode::Linear:
                negMul[j] = 1;
                negAdd[j] = p.negThreshold;
                break;
              case ResetMode::None:
                negMul[j] = 1;
                negAdd[j] = 0;
                break;
            }
        }
        if (drawsPerTick(p))
            stoch.push_back({static_cast<uint32_t>(j), p.leakStochastic,
                             p.thresholdMaskBits,
                             p.resetMode == ResetMode::Linear});
        if (p.potentialBits > 30)
            narrow = false;
    }
    if (stoch.empty()) {
        drawnLeak.clear();
        drawnThr.clear();
        drawnPosAdd.clear();
    } else {
        drawnLeak = leak;
        drawnThr = thr;
        drawnPosAdd = posAdd;
    }
}

void
UpdateLanes::draw(Lfsr16 &rng)
{
    for (const StochNeuron &s : stoch) {
        // Architectural draw order per neuron: leak byte first, then
        // the threshold mask (see endOfTickUpdate).  Outcomes depend
        // only on the draw position, never on the potential.
        const uint32_t j = s.neuron;
        int32_t eff = leak[j];
        if (s.leakStochastic) {
            const uint8_t rho = rng.nextByte();
            eff = rho < (eff < 0 ? -eff : eff) ? (eff > 0) - (eff < 0)
                                               : 0;
        }
        const int32_t eta =
            s.maskBits ? static_cast<int32_t>(rng.nextMasked(s.maskBits))
                       : 0;
        drawnLeak[j] = eff;
        drawnThr[j] = thr[j] + eta;
        // Linear resets subtract (threshold + eta); Store and None
        // adds are draw-independent.
        drawnPosAdd[j] = s.linearReset ? posAdd[j] - eta : posAdd[j];
    }
}

UpdateLaneView
UpdateLanes::view() const
{
    const bool drawn = !stoch.empty();
    return {drawn ? drawnLeak.data() : leak.data(),
            revSel.data(),
            drawn ? drawnThr.data() : thr.data(),
            negLim.data(),
            posMul.data(),
            drawn ? drawnPosAdd.data() : posAdd.data(),
            negMul.data(),
            negAdd.data(),
            lo.data(),
            hi.data()};
}

size_t
UpdateLanes::footprintBytes() const
{
    auto vec = [](const std::vector<int32_t> &v) {
        return v.capacity() * sizeof(int32_t);
    };
    return vec(leak) + vec(revSel) + vec(thr) + vec(negLim) +
        vec(posMul) + vec(posAdd) + vec(negMul) + vec(negAdd) +
        vec(lo) + vec(hi) + stoch.capacity() * sizeof(StochNeuron) +
        vec(drawnLeak) + vec(drawnThr) + vec(drawnPosAdd);
}

void
batchUpdateRange(const UpdateLanes &lanes, int32_t *v, uint32_t begin,
                 uint32_t end, BitVec &fired_bits)
{
    NSCS_ASSERT(lanes.narrow,
                "batched update on a core with a 31-bit neuron");
    // Per word-aligned strip, hand the lane pointers to the active
    // dispatch level's updateStrip and OR the returned fired flags
    // into the strip's word.  Every level computes the file
    // comment's update function value for value, so the level never
    // changes an output bit.
    const UpdateLaneView V = lanes.view();
    const simd::Ops &ops = simd::ops();
    uint32_t j = begin;
    while (j < end) {
        const size_t word = j / 64;
        const uint32_t stop = std::min<uint32_t>(
            end, static_cast<uint32_t>((word + 1) * 64));
        const simd::UpdateStrip s = {
            v + j,         V.leak + j,   V.rev + j,    V.thr + j,
            V.negLim + j,  V.posMul + j, V.posAdd + j, V.negMul + j,
            V.negAdd + j,  V.lo + j,     V.hi + j,
        };
        const uint64_t bits = ops.updateStrip(s, stop - j);
        if (bits)
            fired_bits.orWordAt(word, bits << (j % 64));
        j = stop;
    }
}

void
InstanceLane::init(uint32_t neurons)
{
    v.assign(neurons, 0);
    firedBits = BitVec(neurons);
}

size_t
InstanceLane::footprintBytes() const
{
    return v.capacity() * sizeof(int32_t) + firedBits.footprintBytes();
}

void
InstanceLanes::init(uint32_t instances, uint32_t neurons)
{
    lanes.clear();
    lanes.resize(instances);
    for (InstanceLane &lane : lanes)
        lane.init(neurons);
}

size_t
InstanceLanes::footprintBytes() const
{
    size_t total = lanes.capacity() * sizeof(InstanceLane);
    for (const InstanceLane &lane : lanes)
        total += lane.footprintBytes();
    return total;
}

} // namespace nscs
