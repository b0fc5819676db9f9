#include "util/rng.hh"

#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace nscs {

namespace {

/** SplitMix64 step used for state expansion. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** One Lfsr16::next() step of @p s, for the tables below. */
constexpr uint16_t
lfsrStep(uint16_t s)
{
    return static_cast<uint16_t>((s >> 1) ^ (s & 1u ? 0xB400u : 0u));
}

constexpr uint32_t kPeriod = Lfsr16::kPeriod;

// The stream tables, each its own constant so that every evaluation
// stays well inside the compilers' constexpr step limits.
struct StateTable { uint16_t at[kPeriod]; };
struct CursorTable { uint16_t of[65536]; };
struct ByteTable { uint8_t at[kPeriod + Lfsr16::kStreamPad]; };

constexpr StateTable
buildStates()
{
    StateTable t{};
    uint16_t s = 0xACE1;
    for (uint32_t k = 0; k < kPeriod; ++k) {
        t.at[k] = s;
        s = lfsrStep(s);
    }
    return t;
}

constexpr StateTable kStates = buildStates();

constexpr CursorTable
buildCursors()
{
    CursorTable t{};
    for (uint32_t k = 0; k < kPeriod; ++k)
        t.of[kStates.at[k]] = static_cast<uint16_t>(k);
    return t;
}

constexpr CursorTable kCursors = buildCursors();

constexpr ByteTable
buildBytes()
{
    ByteTable t{};
    for (uint32_t k = 0; k < kPeriod + Lfsr16::kStreamPad; ++k)
        t.at[k] = static_cast<uint8_t>(kStates.at[(k + 1) % kPeriod]);
    return t;
}

constexpr ByteTable kBytes = buildBytes();

// The cycle closes after kPeriod steps (Lfsr16 tests check that it
// visits every non-zero state once, so the cursors invert it).
static_assert(lfsrStep(kStates.at[kPeriod - 1]) == kStates.at[0]);

} // anonymous namespace

uint16_t
Lfsr16::stateAt(uint32_t cursor)
{
    return kStates.at[cursor];
}

uint32_t
Lfsr16::cursorOf(uint16_t state)
{
    return kCursors.of[state];
}

const uint8_t *
Lfsr16::streamBytes()
{
    return kBytes.at;
}

void
Xoshiro256::reset(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &w : s_)
        w = splitmix64(sm);
    // An all-zero state is invalid for xoshiro; splitmix64 cannot
    // produce four zero outputs in a row, but be defensive anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9E3779B97F4A7C15ull;
    hasCachedNormal_ = false;
}

uint64_t
Xoshiro256::below(uint64_t n)
{
    NSCS_ASSERT(n > 0, "below(0) is undefined");
    // Rejection sampling to remove modulo bias.
    uint64_t threshold = (0 - n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

double
Xoshiro256::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u, v, s;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    double m = std::sqrt(-2.0 * std::log(s) / s);
    cachedNormal_ = v * m;
    hasCachedNormal_ = true;
    return u * m;
}

Xoshiro256::State
Xoshiro256::saveState() const
{
    State st;
    for (int i = 0; i < 4; ++i)
        st.s[i] = s_[i];
    st.cachedNormalBits = std::bit_cast<uint64_t>(cachedNormal_);
    st.hasCachedNormal = hasCachedNormal_;
    return st;
}

void
Xoshiro256::restoreState(const State &st)
{
    for (int i = 0; i < 4; ++i)
        s_[i] = st.s[i];
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9E3779B97F4A7C15ull;
    cachedNormal_ = std::bit_cast<double>(st.cachedNormalBits);
    hasCachedNormal_ = st.hasCachedNormal;
}

} // namespace nscs
