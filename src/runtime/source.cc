#include "runtime/source.hh"

#include <bit>
#include <cmath>
#include <map>

#include "util/logging.hh"

namespace nscs {

namespace {

/** The integer form of chance(rate) (see PoissonSource). */
uint64_t
drawThreshold(double rate)
{
    NSCS_ASSERT(rate >= 0.0 && rate <= 1.0,
                "per-tick rate %f outside [0, 1]", rate);
    return static_cast<uint64_t>(std::ceil(rate * 0x1.0p53));
}

} // anonymous namespace

PoissonSource::PoissonSource(std::vector<InputSpike> targets,
                             double rate, uint64_t seed)
    : targets_(std::move(targets)),
      groupPlanes_((targets_.size() + 63) / 64, 0),
      rng_(seed)
{
    // Every group shares one entry, built by broadcasting each
    // threshold bit to all 64 lanes.
    const uint64_t thr = drawThreshold(rate);
    Planes &p = planes_.emplace_back();
    for (size_t k = 0; k < p.size(); ++k)
        p[k] = (thr >> k & 1) ? ~0ull : 0;
}

PoissonSource::PoissonSource(std::vector<InputSpike> targets,
                             std::vector<double> rates, uint64_t seed)
    : targets_(std::move(targets)), rng_(seed)
{
    NSCS_ASSERT(targets_.size() == rates.size(),
                "targets (%zu) and rates (%zu) size mismatch",
                targets_.size(), rates.size());
    std::map<Planes, uint32_t> entryOf;
    for (size_t base = 0; base < rates.size(); base += 64) {
        Planes p{};
        const size_t lanes = std::min<size_t>(64, rates.size() - base);
        for (size_t j = 0; j < lanes; ++j)
            for (uint64_t thr = drawThreshold(rates[base + j]); thr;
                 thr &= thr - 1)
                p[std::countr_zero(thr)] |= 1ull << j;
        auto [it, fresh] = entryOf.try_emplace(
            p, static_cast<uint32_t>(planes_.size()));
        if (fresh)
            planes_.push_back(p);
        groupPlanes_.push_back(it->second);
    }
}

void
PoissonSource::spikesFor(uint64_t, std::vector<InputSpike> &out)
{
    // A local generator keeps the state in registers across the
    // draw loop; the member is written back once.
    Xoshiro256 rng = rng_;
    const size_t n = targets_.size();
    uint64_t draws = 0;
    for (size_t g = 0; g < groupPlanes_.size(); ++g) {
        const size_t base = g * 64;
        const uint64_t lanes =
            n - base >= 64 ? ~0ull : (1ull << (n - base)) - 1;
        const uint64_t *p = planes_[groupPlanes_[g]].data();
        // Bit 53 of every draw-built value is 0: a lane whose
        // threshold is 2^53 fires before any draw.
        uint64_t fire = p[53] & lanes;
        uint64_t open = lanes & ~p[53];
        for (int k = 52; open && k >= 0; --k) {
            const uint64_t r = rng.next();
            ++draws;
            fire |= open & p[k] & ~r;
            open &= ~(r ^ p[k]);
        }
        for (; fire; fire &= fire - 1)
            out.push_back(targets_[base + std::countr_zero(fire)]);
    }
    rng_ = rng;
    draws_ += draws;
}

void
PoissonSource::saveState(JsonValue &out) const
{
    out = JsonValue::object();
    out.set("kind", JsonValue::string("poisson"));
    Xoshiro256::State st = rng_.saveState();
    JsonValue rng = JsonValue::object();
    JsonValue words = JsonValue::array();
    for (uint64_t w : st.s)
        words.append(JsonValue::string(u64ToHex(w)));
    rng.set("s", std::move(words));
    rng.set("cachedNormalBits",
            JsonValue::string(u64ToHex(st.cachedNormalBits)));
    rng.set("hasCachedNormal",
            JsonValue::boolean(st.hasCachedNormal));
    out.set("rng", std::move(rng));
}

bool
PoissonSource::restoreState(const JsonValue &in)
{
    // The generator state is four hex words, at least one non-zero
    // (xoshiro locks up at zero, so no saved generator holds it),
    // plus an optional cached normal: hex bits and a bool.
    std::string kind;
    if (!readString(in, "kind", kind) || kind != "poisson" ||
        !in.has("rng"))
        return false;
    const JsonValue &rng = in.at("rng");
    if (!rng.has("s") || rng.at("s").type() != JsonValue::Type::Array ||
        rng.at("s").size() != 4)
        return false;
    Xoshiro256::State st;
    uint64_t any = 0;
    for (size_t i = 0; i < 4; ++i) {
        if (!readHex(rng.at("s").at(i), st.s[i]))
            return false;
        any |= st.s[i];
    }
    if (!any ||
        (rng.has("cachedNormalBits") &&
         !readHex(rng.at("cachedNormalBits"), st.cachedNormalBits)) ||
        (rng.has("hasCachedNormal") &&
         !readBool(rng, "hasCachedNormal", st.hasCachedNormal)))
        return false;
    rng_.restoreState(st);
    return true;
}

RegularSource::RegularSource(std::vector<InputSpike> targets,
                             uint64_t period, uint64_t phase)
    : targets_(std::move(targets)), period_(period), phase_(phase)
{
    NSCS_ASSERT(period_ > 0, "RegularSource period must be > 0");
}

void
RegularSource::spikesFor(uint64_t t, std::vector<InputSpike> &out)
{
    if (t < phase_ || (t - phase_) % period_ != 0)
        return;
    out.insert(out.end(), targets_.begin(), targets_.end());
}

void
ScheduleSource::add(uint64_t tick, InputSpike spike)
{
    // An add that lands below the sorted prefix's maximum lowers
    // the prefix boundary to the first entry past the stray tick;
    // the prefix stays sorted and never exceeds the tail's minimum,
    // so the next query only has to sort the tail.
    const bool clean = prefix_ == entries_.size();
    if (clean && (entries_.empty() ||
                  tick >= entries_.back().tick)) {
        entries_.push_back(Entry{tick, spike});
        ++prefix_;
        return;
    }
    if (prefix_ > 0 && tick < entries_[prefix_ - 1].tick) {
        auto end = entries_.begin() +
            static_cast<ptrdiff_t>(prefix_);
        auto it = std::upper_bound(entries_.begin(), end, tick,
                                   [](uint64_t t, const Entry &e) {
                                       return t < e.tick;
                                   });
        prefix_ = static_cast<size_t>(it - entries_.begin());
    }
    entries_.push_back(Entry{tick, spike});
}

void
ScheduleSource::spikesFor(uint64_t t, std::vector<InputSpike> &out)
{
    if (prefix_ != entries_.size()) {
        // Restore global tick order by sorting the dirty tail.
        std::stable_sort(entries_.begin() +
                             static_cast<ptrdiff_t>(prefix_),
                         entries_.end(),
                         [](const Entry &a, const Entry &b) {
                             return a.tick < b.tick;
                         });
        prefix_ = entries_.size();
    }
    auto it = std::lower_bound(entries_.begin(), entries_.end(), t,
                               [](const Entry &e, uint64_t tick) {
                                   return e.tick < tick;
                               });
    for (; it != entries_.end() && it->tick == t; ++it)
        out.push_back(it->spike);
}

} // namespace nscs
