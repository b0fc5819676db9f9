#include "neuron/batch.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <type_traits>

#include "neuron/neuron.hh"
#include "util/logging.hh"
#include "util/saturate.hh"
#include "util/simd.hh"

namespace nscs {

template <typename T>
std::span<const T>
LanePool::Store<T>::intern(const std::vector<T> &lane)
{
    // A position-weighted sum over the lane packed into 64-bit words
    // (two int32 or eight byte entries each): it has no serial
    // dependency, and the full compare below settles collisions.
    constexpr size_t kPer = 8 / sizeof(T);
    uint64_t hash = lane.size();
    size_t j = 0;
    for (; j + kPer <= lane.size(); j += kPer) {
        std::array<T, kPer> chunk{};
        std::copy_n(lane.data() + j, kPer, chunk.begin());
        hash += (std::bit_cast<uint64_t>(chunk) ^ j) * 0x9e3779b97f4a7c15ull;
    }
    for (; j < lane.size(); ++j)
        hash += (uint64_t{std::make_unsigned_t<T>(lane[j])} ^
                 (uint64_t{j} << 32)) *
            0x9e3779b97f4a7c15ull;
    const auto [first, last] = byHash.equal_range(hash);
    for (auto it = first; it != last; ++it)
        if (lanes[it->second] == lane)
            return lanes[it->second];
    byHash.emplace(hash, lanes.size());
    return lanes.emplace_back(lane);
}

template <typename T>
size_t
LanePool::Store<T>::footprintBytes() const
{
    size_t bytes = byHash.size() * (sizeof(std::pair<uint64_t, size_t>) +
                                     2 * sizeof(void *));
    for (const std::vector<T> &lane : lanes)
        bytes += sizeof(lane) + lane.capacity() * sizeof(T);
    return bytes;
}

PooledLane
LanePool::intern(const std::vector<int32_t> &lane)
{
    return ints_.intern(lane);
}

PooledBytes
LanePool::intern(const std::vector<uint8_t> &lane)
{
    return bytes_.intern(lane);
}

size_t
LanePool::footprintBytes() const
{
    return sizeof(LanePool) + ints_.footprintBytes() +
        bytes_.footprintBytes();
}

namespace {

/** One (mul, add) affine select of the file comment. */
struct Select
{
    int32_t mul, add;
};

/** The positive-reset select of @p p. */
Select
posSelect(const NeuronParams &p)
{
    switch (p.resetMode) {
      case ResetMode::Store:
        return {0, p.resetPotential};
      case ResetMode::Linear:
        return {1, -p.threshold};
      case ResetMode::None:
        break;
    }
    return {1, 0};
}

/** The negative-rule select of @p p. */
Select
negSelect(const NeuronParams &p)
{
    if (p.negSaturate)
        return {0, -p.negThreshold};
    switch (p.resetMode) {
      case ResetMode::Store:
        return {0, satClamp(-static_cast<int64_t>(p.resetPotential),
                            p.potentialBits)};
      case ResetMode::Linear:
        return {1, p.negThreshold};
      case ResetMode::None:
        break;
    }
    return {1, 0};
}

} // anonymous namespace

void
UpdateLanes::build(const std::vector<NeuronParams> &params,
                   LanePool &pool)
{
    const size_t n = params.size();
    std::vector<int32_t> scratch(n);
    const auto lane = [&](auto field) {
        for (size_t j = 0; j < n; ++j)
            scratch[j] = field(params[j]);
        return pool.intern(scratch);
    };
    using P = const NeuronParams &;
    lo = lane([](P p) { return potentialRange(p).lo; });
    hi = lane([](P p) { return potentialRange(p).hi; });
    // A stochastic leak adds sgn(leak) or nothing; leakOff picks.
    leak = lane([](P p) {
        return p.leakStochastic ? (p.leak > 0) - (p.leak < 0)
                                : int32_t{p.leak};
    });
    revSel = lane([](P p) { return p.leakReversal ? 1 : 0; });
    thr = lane([](P p) { return p.threshold; });
    negLim = lane([](P p) { return -p.negThreshold; });
    posMul = lane([](P p) { return posSelect(p).mul; });
    posAdd = lane([](P p) { return posSelect(p).add; });
    negMul = lane([](P p) { return negSelect(p).mul; });
    negAdd = lane([](P p) { return negSelect(p).add; });

    stoch.clear();
    narrow = true;
    bool any_leak = false, any_mask = false;
    for (size_t j = 0; j < n; ++j) {
        const NeuronParams &p = params[j];
        if (drawsPerTick(p))
            stoch.push_back({static_cast<uint32_t>(j), p.leakStochastic,
                             p.thresholdMaskBits,
                             p.resetMode == ResetMode::Linear});
        any_leak = any_leak || p.leakStochastic;
        any_mask = any_mask || p.thresholdMaskBits;
        if (p.potentialBits > 30)
            narrow = false;
    }
    // Only the draws a cohort makes get state: a deterministic core
    // holds none of it.
    absLeak = {};
    stochLeak = {};
    leakOff = {};
    if (any_leak) {
        stochLeak.assign((n + 63) / 64, 0);
        leakOff.assign(stochLeak.size(), 0);
        std::vector<uint8_t> abs_leak(n);
        for (size_t j = 0; j < n; ++j) {
            abs_leak[j] = static_cast<uint8_t>(std::abs(params[j].leak));
            if (params[j].leakStochastic)
                stochLeak[j / 64] |= uint64_t{1} << (j % 64);
        }
        absLeak = pool.intern(abs_leak);
    }
    drawnThr = {};
    drawnPosAdd = {};
    if (any_mask) {
        drawnThr.assign(thr.begin(), thr.end());
        drawnPosAdd.assign(posAdd.begin(), posAdd.end());
    }
}

void
UpdateLanes::draw(Lfsr16 &rng)
{
    if (stoch.empty())
        return;
    if (drawnThr.empty()) {
        // Leak-only cohort: one leak byte per stochastic-leak neuron,
        // ascending, read from the stream table at the register's
        // cursor; drawRow's successes are the leaks that apply.
        const simd::RowDraws d = simd::ops().drawRow(
            leakOff.data(), stochLeak.data(), stochLeak.data(),
            absLeak.data(), static_cast<uint32_t>(size()),
            Lfsr16::cursorOf(rng.state()));
        for (size_t w = 0; w < leakOff.size(); ++w)
            leakOff[w] = stochLeak[w] & ~leakOff[w];
        rng.restoreState(Lfsr16::stateAt(d.cursor), rng.draws() + d.draws);
        return;
    }
    std::fill(leakOff.begin(), leakOff.end(), uint64_t{0});
    for (const StochNeuron &s : stoch) {
        // Architectural draw order per neuron: leak byte first, then
        // the threshold mask (see endOfTickUpdate).  Outcomes depend
        // only on the draw position, never on the potential.
        const uint32_t j = s.neuron;
        if (s.leakStochastic && rng.nextByte() >= absLeak[j])
            leakOff[j / 64] |= uint64_t{1} << (j % 64);
        const int32_t eta =
            s.maskBits ? static_cast<int32_t>(rng.nextMasked(s.maskBits))
                       : 0;
        drawnThr[j] = thr[j] + eta;
        // Linear resets subtract (threshold + eta); Store and None
        // adds are draw-independent.
        drawnPosAdd[j] = s.linearReset ? posAdd[j] - eta : posAdd[j];
    }
}

UpdateLaneView
UpdateLanes::view() const
{
    const bool drawn = !drawnThr.empty();
    return {leak.data(),
            revSel.data(),
            drawn ? drawnThr.data() : thr.data(),
            negLim.data(),
            posMul.data(),
            drawn ? drawnPosAdd.data() : posAdd.data(),
            negMul.data(),
            negAdd.data(),
            lo.data(),
            hi.data(),
            leakOff.empty() ? nullptr : leakOff.data()};
}

size_t
UpdateLanes::footprintBytes() const
{
    auto vec = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return vec(stoch) + vec(stochLeak) + vec(leakOff) + vec(drawnThr) +
        vec(drawnPosAdd);
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
            V.leakOff ? V.leakOff[word] >> (j % 64) : 0,
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
