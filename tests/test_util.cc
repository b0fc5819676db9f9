/**
 * @file
 * Unit tests for the util substrate: logging, RNG, bit vectors,
 * saturation, SIMD dispatch, statistics, tables and JSON.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "apps/encoder.hh"
#include "util/bitvec.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/saturate.hh"
#include "util/simd.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace nscs {
namespace {

// --- logging ---------------------------------------------------------------

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strprintf("%05.2f", 3.14159), "03.14");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Logging, AssertPassesOnTrue)
{
    NSCS_ASSERT(1 + 1 == 2, "math still works");
    SUCCEED();
}

TEST(LoggingDeath, AssertPanicsOnFalse)
{
    EXPECT_DEATH(NSCS_ASSERT(false, "value was %d", 7), "value was 7");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 3), "boom 3");
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

// --- Lfsr16 ----------------------------------------------------------------

TEST(Lfsr16, ZeroSeedRemapped)
{
    Lfsr16 a(0);
    Lfsr16 b(0xACE1);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Lfsr16, Deterministic)
{
    Lfsr16 a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Lfsr16, MaximalPeriod)
{
    // A maximal 16-bit LFSR revisits its seed after 2^16 - 1 steps
    // and never hits zero.
    Lfsr16 rng(1);
    uint32_t period = 0;
    uint16_t state;
    do {
        state = rng.next();
        ASSERT_NE(state, 0);
        ++period;
        ASSERT_LE(period, 70000u);
    } while (state != 1);
    EXPECT_EQ(period, 65535u);
}

TEST(Lfsr16, StreamTablesMatchTheRegister)
{
    // From every non-zero state: the cursor table inverts the state
    // table, and the byte table read from the state's cursor gives
    // the next 128 nextByte() draws.  Reads run into the table's
    // padding and then wrap, so cursors near the end of the period
    // check both.
    constexpr uint32_t kPeriod = Lfsr16::kPeriod;
    const uint8_t *bytes = Lfsr16::streamBytes();
    EXPECT_EQ(Lfsr16::stateAt(0), 0xACE1);
    for (uint32_t s = 1; s <= 0xFFFF; ++s) {
        const auto state = static_cast<uint16_t>(s);
        const uint32_t cursor = Lfsr16::cursorOf(state);
        ASSERT_LT(cursor, kPeriod);
        ASSERT_EQ(Lfsr16::stateAt(cursor), state);
        Lfsr16 rng(state);
        for (uint32_t k = 0; k < 128; ++k) {
            uint32_t at = cursor + k;
            if (at >= kPeriod + Lfsr16::kStreamPad)
                at -= kPeriod;
            ASSERT_EQ(bytes[at], rng.nextByte())
                << "state " << s << " draw " << k;
        }
    }
}

TEST(Lfsr16, DrawCounting)
{
    Lfsr16 rng(7);
    EXPECT_EQ(rng.draws(), 0u);
    rng.next();
    rng.nextByte();
    rng.nextMasked(4);
    EXPECT_EQ(rng.draws(), 3u);
    rng.reset(7);
    EXPECT_EQ(rng.draws(), 0u);
}

TEST(Lfsr16, MaskedBitsBounded)
{
    Lfsr16 rng(99);
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(rng.nextMasked(5), 32u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextMasked(0), 0u);
}

TEST(Lfsr16, ByteDistributionRoughlyUniform)
{
    Lfsr16 rng(0x1234);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextByte();
    double mean = sum / n;
    EXPECT_NEAR(mean, 127.5, 3.0);
}

// --- Xoshiro256 ------------------------------------------------------------

TEST(Xoshiro, DeterministicAcrossInstances)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Xoshiro, UniformInUnitInterval)
{
    Xoshiro256 rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Xoshiro, BelowIsInRangeAndCoversAll)
{
    Xoshiro256 rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro, RangeInclusive)
{
    Xoshiro256 rng(13);
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
    }
}

TEST(Xoshiro, NormalMoments)
{
    Xoshiro256 rng(5);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// --- BitVec ----------------------------------------------------------------

TEST(BitVec, SetTestClear)
{
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_EQ(v.words(), (std::vector<uint64_t>{1, 1, 2}));
    EXPECT_EQ(v.count(), 3u);
    v.clear(64);
    EXPECT_EQ(v.words(), (std::vector<uint64_t>{1, 0, 2}));
    EXPECT_EQ(v.count(), 2u);
    v.reset();
    EXPECT_TRUE(v.none());
}

TEST(BitVec, ForEachSetVisitsAscending)
{
    BitVec v(200);
    std::vector<size_t> want = {3, 63, 64, 65, 127, 128, 199};
    for (size_t i : want)
        v.set(i);
    std::vector<size_t> got;
    v.forEachSet([&got](size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want);
}

TEST(BitVec, EqualityIncludesSize)
{
    BitVec a(10), b(10), c(11);
    EXPECT_EQ(a, b);
    a.set(3);
    EXPECT_NE(a, b);
    b.set(3);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(BitVecDeath, OutOfRangePanics)
{
    BitVec v(8);
    EXPECT_DEATH(v.set(8), "out of range");
    EXPECT_DEATH(v.clear(100), "out of range");
}

// --- SIMD dispatch ---------------------------------------------------------

constexpr simd::Level kAllLevels[] = {simd::Level::Scalar,
                                      simd::Level::Avx2,
                                      simd::Level::Avx512,
                                      simd::Level::Neon};

/** Restores the active level when a test that re-pins it ends. */
struct ActiveLevelGuard
{
    simd::Level saved = simd::activeLevel();
    ~ActiveLevelGuard() { simd::setActiveLevel(saved); }
};

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    for (simd::Level l : kAllLevels) {
        simd::Level back = l == simd::Level::Scalar ? simd::Level::Neon
                                                    : simd::Level::Scalar;
        ASSERT_TRUE(simd::parseLevel(simd::levelName(l), back))
            << simd::levelName(l);
        EXPECT_EQ(back, l) << simd::levelName(l);
    }
    simd::Level native = simd::Level::Scalar;
    ASSERT_TRUE(simd::parseLevel("native", native));
    EXPECT_EQ(native, simd::detectedLevel());
}

TEST(SimdDispatch, UnknownNamesRejected)
{
    simd::Level l = simd::Level::Avx2;
    EXPECT_FALSE(simd::parseLevel(nullptr, l));
    for (const char *bad : {"", "AVX2", "avx2 ", "sse4", "avx", "native2"})
        EXPECT_FALSE(simd::parseLevel(bad, l)) << "'" << bad << "'";
    EXPECT_EQ(l, simd::Level::Avx2);
}

TEST(SimdDispatch, UnavailableLevelLeavesActiveUnchanged)
{
    ActiveLevelGuard guard;
    size_t refused = 0;
    for (simd::Level l : kAllLevels) {
        SCOPED_TRACE(simd::levelName(l));
        const simd::Level before = simd::activeLevel();
        if (simd::levelAvailable(l)) {
            EXPECT_TRUE(simd::setActiveLevel(l));
            EXPECT_EQ(simd::activeLevel(), l);
        } else {
            ++refused;
            EXPECT_FALSE(simd::setActiveLevel(l));
            EXPECT_EQ(simd::activeLevel(), before);
        }
    }
    // No host runs both the x86 and the aarch64 levels.
    EXPECT_GE(refused, 1u);
    EXPECT_EQ(simd::availableLevels().size(), std::size(kAllLevels) - refused);
}

TEST(SimdDispatch, ProbeOnlyKernelsAreScalarAtEveryLevel)
{
    const simd::Ops &ref = simd::opsFor(simd::Level::Scalar);
    for (simd::Level l : kAllLevels) {
        SCOPED_TRACE(simd::levelName(l));
        const simd::Ops &o = simd::opsFor(l);
        EXPECT_EQ(o.foldRow, ref.foldRow);
        EXPECT_EQ(o.orAccumulate, ref.orAccumulate);
        EXPECT_EQ(o.andPopcount, ref.andPopcount);
        EXPECT_EQ(o.applyWord, ref.applyWord);
    }
}

/**
 * updateStrip at every level against the scalar body, on random
 * narrow lanes of every strip length with random non-zero leakOff
 * masks; and the scalar body's leakOff against the same strip with
 * those lanes' leak zeroed.
 */
TEST(SimdDispatch, UpdateStripMatchesScalarUnderLeakOff)
{
    constexpr uint32_t kLanes = 64;
    Xoshiro256 rng(2929);
    std::vector<int32_t> leak(kLanes), rev(kLanes), thr(kLanes),
        negLim(kLanes), posMul(kLanes), posAdd(kLanes), negMul(kLanes),
        negAdd(kLanes), lo(kLanes), hi(kLanes), v0(kLanes),
        zeroed(kLanes);
    const simd::Ops &ref = simd::opsFor(simd::Level::Scalar);
    for (int round = 0; round < 400; ++round) {
        const uint32_t n = round % 4 == 0
            ? kLanes : 1 + static_cast<uint32_t>(rng.below(kLanes));
        for (uint32_t j = 0; j < kLanes; ++j) {
            const unsigned bits = 8 + static_cast<unsigned>(rng.below(13));
            lo[j] = satMin(bits);
            hi[j] = satMax(bits);
            leak[j] = static_cast<int32_t>(rng.range(-255, 255));
            rev[j] = static_cast<int32_t>(rng.below(2));
            thr[j] = static_cast<int32_t>(rng.range(0, hi[j]));
            negLim[j] = static_cast<int32_t>(rng.range(lo[j], 0));
            posMul[j] = static_cast<int32_t>(rng.below(2));
            posAdd[j] = static_cast<int32_t>(rng.range(lo[j], hi[j]));
            negMul[j] = static_cast<int32_t>(rng.below(2));
            negAdd[j] = static_cast<int32_t>(rng.range(lo[j], hi[j]));
            v0[j] = static_cast<int32_t>(rng.range(lo[j], hi[j]));
        }
        uint64_t leak_off = 0;
        while (!leak_off)
            leak_off = rng.next() & rng.next();
        const auto run = [&](const simd::Ops &o, const int32_t *lk,
                             uint64_t off, std::vector<int32_t> &v) {
            v = v0;
            const simd::UpdateStrip s{v.data(),      lk,
                                      rev.data(),    thr.data(),
                                      negLim.data(), posMul.data(),
                                      posAdd.data(), negMul.data(),
                                      negAdd.data(), lo.data(),
                                      hi.data(),     off};
            return o.updateStrip(s, n);
        };
        for (uint32_t j = 0; j < kLanes; ++j)
            zeroed[j] = (leak_off >> j & 1) ? 0 : leak[j];
        std::vector<int32_t> want, got;
        const uint64_t fired = run(ref, zeroed.data(), 0, want);
        ASSERT_EQ(run(ref, leak.data(), leak_off, got), fired)
            << "round " << round;
        ASSERT_EQ(got, want) << "round " << round;
        for (simd::Level l : simd::availableLevels()) {
            SCOPED_TRACE(simd::levelName(l));
            ASSERT_EQ(run(simd::opsFor(l), leak.data(), leak_off, got),
                      fired)
                << "round " << round << " n " << n;
            ASSERT_EQ(got, want) << "round " << round << " n " << n;
        }
    }
}

/**
 * encodeRates at every level against the scalar body and against
 * encodeRate's spike list, over windows around the word boundaries
 * and values that sit on, next to and between the fire level's
 * edges: 0, 1, 1/3, 0.1, 0.73, a 1001-point grid on [0, 1] and the
 * neighbours of 1 - 1e-12, where `>=` and `>` differ at the first
 * tick.  Whole calls run the vector bodies' short last block;
 * sub-ranges start off the block grid and cover every block length
 * near a vector.  The word after the trains must stay untouched.
 */
TEST(SimdDispatch, EncodeRatesMatchesScalarAndEncodeRate)
{
    const double edge = 1.0 - 1e-12;
    std::vector<double> values = {0.0,
                                  1.0,
                                  1.0 / 3.0,
                                  0.1,
                                  0.73,
                                  edge,
                                  std::nextafter(edge, 0.0),
                                  std::nextafter(edge, 2.0)};
    for (int k = 0; k <= 1000; ++k)
        values.push_back(k / 1000.0);
    const simd::Ops &ref = simd::opsFor(simd::Level::Scalar);
    for (uint32_t window : {1u, 7u, 63u, 64u, 65u, 96u, 128u, 200u}) {
        SCOPED_TRACE(window);
        const size_t per = (window + 63) / 64;
        std::vector<uint64_t> expect(values.size() * per, 0);
        for (size_t k = 0; k < values.size(); ++k)
            for (uint32_t t : encodeRate(values[k], window))
                expect[k * per + t / 64] |= 1ull << (t % 64);
        constexpr uint64_t kGuard = 0x5eed5eed5eed5eedull;
        const auto run = [&](const simd::Ops &o, size_t first, size_t n) {
            std::vector<uint64_t> out(n * per + 1, kGuard);
            o.encodeRates(values.data() + first, n, window, out.data());
            EXPECT_EQ(out.back(), kGuard) << "n " << n;
            out.pop_back();
            return out;
        };
        ASSERT_EQ(run(ref, 0, values.size()), expect);
        for (simd::Level l : simd::availableLevels()) {
            SCOPED_TRACE(simd::levelName(l));
            const simd::Ops &o = simd::opsFor(l);
            ASSERT_EQ(run(o, 0, values.size()), expect);
            for (size_t n : {1u, 3u, 4u, 5u, 8u, 9u, 15u, 16u, 17u, 31u,
                             32u, 33u, 47u}) {
                const std::vector<uint64_t> want(
                    expect.begin() + static_cast<ptrdiff_t>(3 * per),
                    expect.begin() + static_cast<ptrdiff_t>((3 + n) * per));
                ASSERT_EQ(run(o, 3, n), want) << "n " << n;
            }
        }
    }
}

#if defined(__x86_64__) || defined(__i386__)
/** XINUSE bits of the upper vector state: YMM_Hi128 (bit 2) and
 *  ZMM_Hi256 (bit 6).  While either is set, legacy-SSE code runs
 *  under a false dependency on the upper halves (or a state-transition
 *  penalty), so every kernel must return with both clear. */
constexpr uint64_t kDirtyUpper = (uint64_t{1} << 2) | (uint64_t{1} << 6);

/** True when XGETBV with ECX = 1 reads XINUSE: the OS enabled XSAVE
 *  (CPUID.1:ECX[27]) and CPUID.(EAX=0DH,ECX=1):EAX[2] is set. */
bool
xinuseReadable()
{
    unsigned a, b, c, d;
    if (!__get_cpuid(1, &a, &b, &c, &d) || !((c >> 27) & 1))
        return false;
    return __get_cpuid_count(0xd, 1, &a, &b, &c, &d) && ((a >> 2) & 1);
}

uint64_t
xinuse()
{
    uint32_t lo, hi;
    asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1) : "memory");
    return (uint64_t{hi} << 32) | lo;
}

/** The dirty upper bits @p call leaves, starting from a clean state
 *  (a set bit implies AVX, so vzeroupper is safe to issue). */
template <class F>
uint64_t
upperLeftBy(F &&call)
{
    if (xinuse() & kDirtyUpper)
        asm volatile("vzeroupper" ::: "memory");
    if (xinuse() & kDirtyUpper)
        return ~uint64_t{0};
    call();
    return xinuse() & kDirtyUpper;
}
#endif

TEST(SimdDispatch, EveryKernelReturnsWithCleanUpperState)
{
#if !defined(__x86_64__) && !defined(__i386__)
    GTEST_SKIP() << "upper vector state is an x86 notion";
#else
    if (!xinuseReadable())
        GTEST_SKIP() << "XGETBV cannot read XINUSE on this host";

    // Full vectors, a sub-vector tail (61 = 3 * 16 + 8 + 5) and the
    // early exits: no lane, no row bit, no draw, nothing touched.
    constexpr uint32_t kLanes = 256;
    std::vector<int32_t> v(kLanes), leak(kLanes, -1), rev(kLanes),
        thr(kLanes, 3), negLim(kLanes, -5), posMul(kLanes),
        posAdd(kLanes), negMul(kLanes, 1), negAdd(kLanes),
        lo(kLanes, -100), hi(kLanes, 100), weight(kLanes, 2),
        count(kLanes), succ(kLanes);
    for (uint32_t j = 0; j < kLanes; ++j) {
        v[j] = static_cast<int32_t>(j % 11) - 5;
        rev[j] = static_cast<int32_t>(j & 1);
    }
    const simd::UpdateStrip strip{v.data(),      leak.data(),
                                  rev.data(),    thr.data(),
                                  negLim.data(), posMul.data(),
                                  posAdd.data(), negMul.data(),
                                  negAdd.data(), lo.data(),
                                  hi.data(),     0x5a5a5a5a5a5a5a5aull};
    const std::vector<uint64_t> ones(kLanes / 64, ~uint64_t{0}),
        zeros(kLanes / 64, 0);
    std::vector<uint64_t> touched(kLanes / 64), out(kLanes / 64),
        planes(4 * (kLanes / 64));
    const std::vector<uint8_t> absWeight(kLanes, 128);
    const std::vector<double> rates(40, 0.3);
    std::vector<uint64_t> trains(40 * 3);

    simd::ApplyWord word{};
    word.v = v.data();
    word.vLo = lo.data();
    word.vHi = hi.data();

    simd::CountApply apply{};
    apply.count[0] = count.data();
    apply.succ[0] = succ.data();
    apply.weight[0] = weight.data();
    apply.stochMask[0] = ones.data();
    apply.touched = touched.data();
    apply.v = v.data();
    apply.vLo = lo.data();
    apply.vHi = hi.data();

    for (simd::Level l : simd::availableLevels()) {
        SCOPED_TRACE(simd::levelName(l));
        const simd::Ops &o = simd::opsFor(l);
        auto expectClean = [](const char *what, uint64_t dirty) {
            EXPECT_EQ(dirty, 0u)
                << what << ": XINUSE upper bits 0x" << std::hex << dirty;
        };
        expectClean("foldRow", upperLeftBy([&] {
            o.foldRow(planes.data(), kLanes / 64, 4, ones.data(),
                      kLanes / 64);
        }));
        expectClean("orAccumulate", upperLeftBy([&] {
            o.orAccumulate(out.data(), ones.data(), kLanes / 64);
        }));
        expectClean("andPopcount", upperLeftBy([&] {
            o.andPopcount(ones.data(), ones.data(), kLanes / 64);
        }));
        expectClean("applyWord", upperLeftBy([&] { o.applyWord(word, 64); }));
        for (size_t n : {size_t{40}, size_t{1}, size_t{0}}) {
            SCOPED_TRACE(n);
            expectClean("encodeRates", upperLeftBy([&] {
                o.encodeRates(rates.data(), n, 130, trains.data());
            }));
        }
        for (uint32_t n : {64u, 61u, 5u, 0u}) {
            SCOPED_TRACE(n);
            expectClean("updateStrip",
                        upperLeftBy([&] { o.updateStrip(strip, n); }));
        }
        for (uint32_t n : {kLanes, 61u}) {
            SCOPED_TRACE(n);
            expectClean("countRow", upperLeftBy([&] {
                o.countRow(count.data(), ones.data(), n);
            }));
            expectClean("countRow of a zero row", upperLeftBy([&] {
                o.countRow(count.data(), zeros.data(), n);
            }));
            std::fill(succ.begin(), succ.end(), 1);
            std::copy(ones.begin(), ones.end(), touched.begin());
            expectClean("applyCounts",
                        upperLeftBy([&] { o.applyCounts(apply, n); }));
            std::fill(touched.begin(), touched.end(), 0);
            expectClean("applyCounts with nothing touched",
                        upperLeftBy([&] { o.applyCounts(apply, n); }));
            expectClean("drawRow", upperLeftBy([&] {
                o.drawRow(out.data(), ones.data(), ones.data(),
                          absWeight.data(), n, 7);
            }));
            expectClean("drawRow that draws nothing", upperLeftBy([&] {
                o.drawRow(out.data(), ones.data(), zeros.data(),
                          absWeight.data(), n, 7);
            }));
        }
    }
#endif
}

// --- saturate --------------------------------------------------------------

TEST(Saturate, Bounds)
{
    EXPECT_EQ(satMax(8), 127);
    EXPECT_EQ(satMin(8), -128);
    EXPECT_EQ(satMax(20), 524287);
    EXPECT_EQ(satMin(20), -524288);
    EXPECT_EQ(satMax(31), INT32_MAX);
    EXPECT_EQ(satMin(31), INT32_MIN);
}

TEST(Saturate, AddClamps)
{
    EXPECT_EQ(satAdd(120, 10, 8), 127);
    EXPECT_EQ(satAdd(-120, -10, 8), -128);
    EXPECT_EQ(satAdd(100, 10, 8), 110);
    EXPECT_EQ(satAdd(0, 0, 8), 0);
}

TEST(Saturate, ClampIsMonotone)
{
    for (int64_t v = -1000; v <= 1000; v += 7) {
        int32_t c1 = satClamp(v, 8);
        int32_t c2 = satClamp(v + 1, 8);
        EXPECT_LE(c1, c2);
    }
}

// --- stats -----------------------------------------------------------------

TEST(RunningStat, MeanMinMax)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Histogram, BinningAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(9.999);
    h.add(10.0);
    h.add(42.0);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
}

TEST(Histogram, QuantileOrdering)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.add(static_cast<double>(i % 100));
    double p50 = h.quantile(0.5);
    double p99 = h.quantile(0.99);
    EXPECT_LE(p50, p99);
    EXPECT_NEAR(p50, 50.0, 2.0);
    EXPECT_NEAR(p99, 99.0, 2.0);
}

/** Sample counter struct for the counter-table helpers. */
struct TwoCounters
{
    uint64_t a = 0;
    uint64_t b = 0;  // derived
};

constexpr CounterField<TwoCounters> kTwoFields[] = {
    {"a", &TwoCounters::a},
    {"b", &TwoCounters::b, true},
};

TEST(CounterTable, AddWriteAndReadBack)
{
    TwoCounters sum{1, 2};
    addCounters(sum, TwoCounters{10, 20}, kTwoFields);
    EXPECT_EQ(sum.a, 11u);
    EXPECT_EQ(sum.b, 22u);
    EXPECT_EQ(countersToJson(sum, kTwoFields).dump(), "{\"a\":11,\"b\":22}");
    // Snapshots leave derived fields out, and reading keeps them.
    EXPECT_EQ(countersToJson(sum, kTwoFields, false).dump(), "{\"a\":11}");
    TwoCounters back{0, 5};
    ASSERT_TRUE(readCounters(parseJson("{\"a\":7,\"b\":9}").value, back,
                             kTwoFields));
    EXPECT_EQ(back.a, 7u);
    EXPECT_EQ(back.b, 5u);
    EXPECT_FALSE(readCounters(parseJson("{\"a\":-1}").value, back,
                              kTwoFields));
}

// --- table -----------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtInt(1234567), "1,234,567");
    EXPECT_EQ(fmtInt(7), "7");
    EXPECT_EQ(fmtSi(0.0), "0");
    EXPECT_EQ(fmtSi(2.56e9), "2.56G");
    EXPECT_EQ(fmtSi(26e-12, "J"), "26.0pJ");
    EXPECT_EQ(fmtBytes(512), "512 B");
    EXPECT_EQ(fmtBytes(1536 * 1024), "1.50 MiB");
}

// --- json ------------------------------------------------------------------

TEST(Json, ScalarRoundTrip)
{
    JsonValue o = JsonValue::object();
    o.set("i", JsonValue::integer(-42));
    o.set("d", JsonValue::number(2.5));
    o.set("s", JsonValue::string("hi \"there\"\n"));
    o.set("b", JsonValue::boolean(true));
    o.set("n", JsonValue());

    auto res = parseJson(o.dump());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.at("i").asInt(), -42);
    EXPECT_DOUBLE_EQ(res.value.at("d").asDouble(), 2.5);
    EXPECT_EQ(res.value.at("s").asString(), "hi \"there\"\n");
    EXPECT_TRUE(res.value.at("b").asBool());
    EXPECT_TRUE(res.value.at("n").isNull());
}

TEST(Json, ArraysNest)
{
    auto res = parseJson("[1, [2, 3], {\"k\": [4]}]");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.size(), 3u);
    EXPECT_EQ(res.value.at(1).at(1).asInt(), 3);
    EXPECT_EQ(res.value.at(2).at("k").at(0).asInt(), 4);
}

TEST(Json, PrettyPrintParses)
{
    JsonValue arr = JsonValue::array();
    for (int i = 0; i < 3; ++i)
        arr.append(JsonValue::integer(i));
    JsonValue o = JsonValue::object();
    o.set("xs", std::move(arr));
    std::string pretty = o.dump(2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    auto res = parseJson(pretty);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.at("xs").size(), 3u);
}

TEST(Json, ParseErrorsReported)
{
    EXPECT_FALSE(parseJson("").ok);
    EXPECT_FALSE(parseJson("{").ok);
    EXPECT_FALSE(parseJson("[1,]").ok);
    EXPECT_FALSE(parseJson("{\"a\" 1}").ok);
    EXPECT_FALSE(parseJson("tru").ok);
    EXPECT_FALSE(parseJson("1 2").ok);
    EXPECT_FALSE(parseJson("\"unterminated").ok);
}

TEST(Json, NumbersIntegralVsFloat)
{
    auto res = parseJson("[7, 7.0, 7e0, -0]");
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.value.at(0).type(), JsonValue::Type::Int);
    EXPECT_EQ(res.value.at(1).type(), JsonValue::Type::Double);
    EXPECT_EQ(res.value.at(1).asInt(), 7);
    EXPECT_EQ(res.value.at(2).asInt(), 7);
}

TEST(Json, UnicodeEscapes)
{
    auto res = parseJson("\"a\\u0041\\u00e9\"");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value.asString(), "aA\xc3\xa9");
}

TEST(Json, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/nscs_json_test.json";
    ASSERT_TRUE(writeFile(path, "{\"k\": [1, 2]}"));
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    auto res = parseJson(text);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.value.at("k").size(), 2u);
    EXPECT_FALSE(readFile("/nonexistent/nope", text));
}

} // anonymous namespace
} // namespace nscs
