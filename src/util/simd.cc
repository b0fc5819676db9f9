/**
 * @file
 * The per-level SIMD kernel implementations and the runtime
 * dispatch table (see util/simd.hh for the contract).
 *
 * x86-64 variants are compiled with per-function target attributes
 * (`target("avx2")` / `target("avx512f")`), so this translation
 * unit builds under the project's baseline -O2 flags and the binary
 * stays runnable on hosts without the extensions — the cpuid probe
 * decides what actually executes.  NEON is aarch64 baseline and
 * needs no attribute.  Every variant implements the identical
 * arithmetic; tails that don't fill a vector run the scalar
 * reference (the AVX-512 count-lane kernels mask them instead, and
 * the rate encoders pad them with zero values) so a level's output
 * never depends on the word count.
 *
 * No x86 vector body returns or calls out with the upper vector
 * state dirty.  Everything outside these bodies is baseline-SSE
 * code, which runs slowly while the YMM/ZMM upper halves are in use
 * (README.md, "SIMD dispatch", has the measured cost).  The
 * compiler places vzeroupper at a body's own returns, but GCC 12
 * omits it when the exit path calls a non-AVX function of this file,
 * so a body whose tail delegates to a scalar helper issues
 * _mm256_zeroupper() before the call.  tests/test_util.cc reads
 * XINUSE after every kernel at every level to hold this.
 *
 * This is the only file in src/ allowed to use vendor intrinsics
 * (linter rule `simd-guard`).
 */

#include "util/simd.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/rng.hh"

#if defined(__x86_64__) || defined(__i386__)
#define NSCS_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define NSCS_SIMD_NEON 1
#include <arm_neon.h>
#endif

// GCC's avx512fintrin.h implements _mm512_undefined_epi32 (used by
// the unaligned load/store intrinsics) with a self-initialized
// variable, which -Wmaybe-uninitialized flags once those helpers are
// inlined here.  The values are fully overwritten before use; mute
// just those diagnostics for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace nscs {
namespace simd {

namespace {

// ---------------------------------------------------------------
// Scalar reference kernels.  updateStrip's range variant exists so
// the vector bodies can delegate their sub-vector tails.
// ---------------------------------------------------------------

void
foldRowScalar(uint64_t *planes, size_t stride, uint32_t plane_count,
              const uint64_t *row, size_t words)
{
    for (size_t w = 0; w < words; ++w) {
        uint64_t carry = row[w];
        if (!carry)
            continue;
        size_t idx = w;
        for (uint32_t p = 0; p < plane_count && carry;
             ++p, idx += stride) {
            uint64_t old = planes[idx];
            planes[idx] = old ^ carry;
            carry &= old;
        }
    }
}

bool
orAccumulateScalar(uint64_t *dst, const uint64_t *src, size_t words)
{
    uint64_t changed = 0;
    for (size_t w = 0; w < words; ++w) {
        uint64_t old = dst[w];
        uint64_t nw = old | src[w];
        changed |= old ^ nw;
        dst[w] = nw;
    }
    return changed != 0;
}

uint64_t
andPopcountScalar(const uint64_t *a, const uint64_t *b, size_t words)
{
    uint64_t total = 0;
    for (size_t w = 0; w < words; ++w)
        total += static_cast<uint64_t>(
            __builtin_popcountll(a[w] & b[w]));
    return total;
}

/**
 * The narrow batched neuron update over strip lanes [begin, end) —
 * the update function of neuron/batch.hh's file comment, value
 * for value (the narrow proof bounds every intermediate inside
 * int32).  @return fired flags at their absolute lane positions.
 */
uint64_t
updateStripScalarRange(const UpdateStrip &s, uint32_t begin,
                       uint32_t end)
{
    uint64_t fired_bits = 0;
    for (uint32_t j = begin; j < end; ++j) {
        int32_t x = s.v[j];
        int32_t sg = (x > 0) - (x < 0);
        int32_t omega = 1 + s.rev[j] * (sg - 1);
        int32_t lo = s.lo[j];
        int32_t hi = s.hi[j];
        int32_t leak = (s.leakOff >> j & 1) ? 0 : s.leak[j];
        int32_t u = x + omega * leak;
        u = u < lo ? lo : (u > hi ? hi : u);
        bool fired = u >= s.thr[j];
        bool neg = u < s.negLim[j];
        int32_t pos = s.posMul[j] * u + s.posAdd[j];
        pos = pos < lo ? lo : (pos > hi ? hi : pos);
        int32_t ng = s.negMul[j] * u + s.negAdd[j];
        ng = ng < lo ? lo : (ng > hi ? hi : ng);
        s.v[j] = fired ? pos : (neg ? ng : u);
        fired_bits |= static_cast<uint64_t>(fired) << j;
    }
    return fired_bits;
}

uint64_t
updateStripScalar(const UpdateStrip &s, uint32_t n)
{
    return updateStripScalarRange(s, 0, n);
}

/** util/simd.hh's applyWord contract, the only body every level
 *  serves.  Its int32 bound is applyCountsLane's. */
uint64_t
applyWordScalar(const ApplyWord &a, uint32_t n)
{
    uint64_t applied = 0;
    for (uint32_t b = 0; b < n; ++b) {
        int32_t delta = 0, pos = 0, neg = 0;
        for (unsigned g = 0; g < kApplyWordTypes; ++g) {
            if (!a.detUsed[g])
                continue;
            const int32_t wt = a.weight[g][b];
            int32_t d;
            if ((a.stochMask[g] >> b) & 1) {
                int32_t scnt = 0;
                const uint64_t *sp = a.succPlanes[g];
                for (uint32_t p = 0; p < a.succUsed[g]; ++p)
                    scnt |= static_cast<int32_t>(
                                (sp[p * a.succStride] >> b) & 1)
                        << p;
                d = scnt * ((wt > 0) - (wt < 0));
            } else {
                int32_t cnt = 0;
                const uint64_t *pl = a.detPlanes[g];
                for (uint32_t p = 0; p < a.detUsed[g]; ++p)
                    cnt |= static_cast<int32_t>(
                               (pl[p * a.detStride] >> b) & 1)
                        << p;
                d = cnt * wt;
            }
            delta += d;
            if (d > 0)
                pos += d;
            else
                neg += d;
        }
        const int32_t v0 = a.v[b];
        if (v0 + pos <= a.vHi[b] && v0 + neg >= a.vLo[b]) {
            a.v[b] = v0 + delta;
            applied |= uint64_t{1} << b;
        }
    }
    return applied;
}

/** Word @p w of an @p n-lane bit row, with the bits at or past n
 *  cleared. */
inline uint64_t
laneBits(const uint64_t *row, size_t w, uint32_t n)
{
    const size_t rest = n - w * 64;
    return rest >= 64 ? row[w] : row[w] & ((uint64_t{1} << rest) - 1);
}

/** lane[b] += 1 for every set bit b of @p bits (one 64-lane word). */
inline void
countBitsScalar(int32_t *lane, uint64_t bits)
{
    while (bits) {
        ++lane[__builtin_ctzll(bits)];
        bits &= bits - 1;
    }
}

void
countRowScalar(int32_t *lane, const uint64_t *row, uint32_t n)
{
    const size_t words = (n + 63) / 64;
    for (size_t w = 0; w < words; ++w)
        countBitsScalar(lane + w * 64, laneBits(row, w, n));
}

/**
 * The count apply of lane @p j — the reference for util/simd.hh's
 * applyCounts contract.  @p events gains the lane's counts.  @return
 * true when the lane committed.
 *
 * Every intermediate fits int32 on the narrow cores that take this
 * path (every neuron at potentialBits <= 30, so |v| <= 2^29): counts
 * <= numAxons and |weight| <= 255, so with fewer than 2^18 axons a
 * core's pos/neg/delta stay under 2^28 and the guard sums under
 * 2^30.  A 31-bit rail reaches INT32_MAX, where v + pos would
 * overflow, so such cores integrate scalar (core/core.cc).
 */
inline bool
applyCountsLane(const CountApply &a, size_t j, uint64_t &events)
{
    const uint64_t bit = uint64_t{1} << (j & 63);
    int32_t pos = 0, neg = 0;
    for (unsigned g = 0; g < kApplyWordTypes; ++g) {
        if (!a.count[g])
            continue;
        const int32_t wt = a.weight[g][j];
        const int32_t cnt = a.count[g][j];
        events += static_cast<uint64_t>(cnt);
        int32_t d = cnt * wt;
        a.count[g][j] = 0;
        if (a.succ[g]) {
            if (a.stochMask[g][j >> 6] & bit)
                d = a.succ[g][j] * ((wt > 0) - (wt < 0));
            a.succ[g][j] = 0;
        }
        if (d > 0)
            pos += d;
        else
            neg += d;
    }
    const int32_t v0 = a.v[j];
    if (v0 + pos > a.vHi[j] || v0 + neg < a.vLo[j])
        return false;
    a.v[j] = v0 + pos + neg;
    return true;
}

/** applyCountsLane over the set bits of @p bits, lanes of word
 *  @p w.  @return the lanes that failed the guard. */
inline uint64_t
applyCountsBitsScalar(const CountApply &a, size_t w, uint64_t bits,
                      uint64_t &events)
{
    uint64_t failed = 0;
    while (bits) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
        if (!applyCountsLane(a, w * 64 + b, events))
            failed |= uint64_t{1} << b;
        bits &= bits - 1;
    }
    return failed;
}

uint64_t
applyCountsScalar(const CountApply &a, uint32_t n)
{
    const size_t words = (n + 63) / 64;
    uint64_t events = 0;
    for (size_t w = 0; w < words; ++w)
        a.touched[w] = applyCountsBitsScalar(
            a, w, laneBits(a.touched, w, n), events);
    return events;
}

/** Advance stream cursor @p cursor by @p k <= 64 draws, wrapping
 *  modulo the period. */
inline uint32_t
advanceCursor(uint32_t cursor, unsigned k)
{
    cursor += k;
    return cursor >= Lfsr16::kPeriod ? cursor - Lfsr16::kPeriod : cursor;
}

/** drawRow's reference: one branch-free byte compare per target,
 *  reading the word's draws from the table at the cursor. */
RowDraws
drawRowScalar(uint64_t *succ, const uint64_t *row, const uint64_t *stoch,
              const uint8_t *absWeight, uint32_t n, uint32_t cursor)
{
    const uint8_t *bytes = Lfsr16::streamBytes();
    const size_t words = (n + 63) / 64;
    uint64_t draws = 0;
    for (size_t w = 0; w < words; ++w) {
        const uint8_t *rho = bytes + cursor;
        const uint8_t *wt = absWeight + w * 64;
        uint64_t hits = 0;
        unsigned k = 0;
        for (uint64_t bits = laneBits(row, w, n) & stoch[w]; bits;
             bits &= bits - 1, ++k) {
            const auto b = static_cast<unsigned>(__builtin_ctzll(bits));
            hits |= uint64_t{rho[k] < wt[b]} << b;
        }
        succ[w] = hits;
        draws += k;
        cursor = advanceCursor(cursor, k);
    }
    return {draws, cursor};
}

/** The rate encoder's fire level (apps/encoder.hh's encodeRate). */
constexpr double kRateFire = 1.0 - 1e-12;

/** encodeRates' reference: one error-diffusion recurrence per value,
 *  its accumulator carried from word to word. */
void
encodeRatesScalar(const double *values, size_t n, uint32_t window,
                  uint64_t *words)
{
    for (size_t k = 0; k < n; ++k) {
        const double v = values[k];
        double acc = 0.0;
        for (uint32_t base = 0; base < window; base += 64) {
            const uint32_t len = std::min<uint32_t>(64, window - base);
            uint64_t mask = 0;
            for (uint32_t t = 0; t < len; ++t) {
                acc += v;
                if (acc >= kRateFire) {
                    mask |= uint64_t{1} << t;
                    acc -= 1.0;
                }
            }
            *words++ = mask;
        }
    }
}

/**
 * Trains a vector body of encodeRates encodes at once: four vectors,
 * so each vector's add-compare-subtract chain overlaps the other
 * three.  A short block runs its missing trains on value 0 and
 * stores only the real ones.
 */
constexpr size_t kRateVectors = 4;

#ifdef NSCS_SIMD_X86

// ---------------------------------------------------------------
// AVX2 kernels: 8 x i32 per vector.
// ---------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
load256(const void *p)
{
    // nscs-lint: allow(raw-serialize): unaligned SIMD lane load
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

__attribute__((target("avx2"))) inline void
store256(void *p, __m256i x)
{
    // nscs-lint: allow(raw-serialize): unaligned SIMD lane store
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
}

__attribute__((target("avx2"))) inline __m256i
clamp256(__m256i x, __m256i lo, __m256i hi)
{
    return _mm256_min_epi32(_mm256_max_epi32(x, lo), hi);
}

/** Expand 8 bits of a lane-mask word (lanes sh..sh+7) into 32-bit
 *  lane masks: all-ones where the bit is set (AVX2 has no mask
 *  registers, so predication goes through compare + blend vectors). */
__attribute__((target("avx2"))) inline __m256i
laneMask256(uint64_t word, unsigned sh)
{
    const __m256i sel =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i bits = _mm256_set1_epi32(
        static_cast<int32_t>((word >> sh) & 0xff));
    return _mm256_cmpeq_epi32(_mm256_and_si256(bits, sel), sel);
}

__attribute__((target("avx2"))) uint64_t
updateStripAvx2(const UpdateStrip &s, uint32_t n)
{
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i zero = _mm256_setzero_si256();
    uint64_t fired_bits = 0;
    uint32_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256i x = load256(s.v + j);
        __m256i sg = _mm256_sub_epi32(_mm256_cmpgt_epi32(zero, x),
                                      _mm256_cmpgt_epi32(x, zero));
        __m256i omega = _mm256_add_epi32(
            one, _mm256_mullo_epi32(load256(s.rev + j),
                                    _mm256_sub_epi32(sg, one)));
        __m256i lo = load256(s.lo + j);
        __m256i hi = load256(s.hi + j);
        __m256i leak = _mm256_andnot_si256(laneMask256(s.leakOff, j),
                                           load256(s.leak + j));
        __m256i u = _mm256_add_epi32(x, _mm256_mullo_epi32(omega, leak));
        u = clamp256(u, lo, hi);
        __m256i thr = load256(s.thr + j);
        __m256i fired = _mm256_or_si256(_mm256_cmpgt_epi32(u, thr),
                                        _mm256_cmpeq_epi32(u, thr));
        __m256i neg = _mm256_cmpgt_epi32(load256(s.negLim + j), u);
        __m256i pos = _mm256_add_epi32(
            _mm256_mullo_epi32(load256(s.posMul + j), u),
            load256(s.posAdd + j));
        pos = clamp256(pos, lo, hi);
        __m256i ng = _mm256_add_epi32(
            _mm256_mullo_epi32(load256(s.negMul + j), u),
            load256(s.negAdd + j));
        ng = clamp256(ng, lo, hi);
        __m256i out = _mm256_blendv_epi8(u, ng, neg);
        out = _mm256_blendv_epi8(out, pos, fired);
        store256(s.v + j, out);
        unsigned m = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(fired)));
        fired_bits |= static_cast<uint64_t>(m) << j;
    }
    _mm256_zeroupper();
    return fired_bits | updateStripScalarRange(s, j, n);
}

__attribute__((target("avx2"))) void
countRowAvx2(int32_t *lane, const uint64_t *row, uint32_t n)
{
    const size_t words = (n + 63) / 64;
    for (size_t w = 0; w < words; ++w) {
        const uint64_t bits = laneBits(row, w, n);
        if (!bits)
            continue;
        int32_t *base = lane + w * 64;
        const size_t rest = std::min<size_t>(64, n - w * 64);
        unsigned c = 0;
        // A set lane mask is -1, so subtracting it adds one.
        for (; c + 8 <= rest; c += 8)
            store256(base + c, _mm256_sub_epi32(load256(base + c),
                                                laneMask256(bits, c)));
        if (c < rest)
            countBitsScalar(base, bits >> c << c);
    }
}

/** Sum of the eight int32 lanes of @p x. */
__attribute__((target("avx2"))) inline int32_t
hsum256(__m256i x)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(x),
                              _mm256_extracti128_si256(x, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) uint64_t
applyCountsAvx2(const CountApply &a, uint32_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i mone = _mm256_set1_epi32(-1);
    const size_t words = (n + 63) / 64;
    uint64_t events = 0;
    for (size_t w = 0; w < words; ++w) {
        const uint64_t t = laneBits(a.touched, w, n);
        const size_t rest = std::min<size_t>(64, n - w * 64);
        uint64_t failed = 0;
        __m256i ev = zero;
        unsigned c = 0;
        for (; c + 8 <= rest; c += 8) {
            const uint64_t m = (t >> c) & 0xff;
            if (!m)
                continue;
            // Lanes of the chunk outside the touched set hold zero
            // counts, so they reduce to a guard-passing v += 0.
            const size_t j = w * 64 + c;
            __m256i pos = zero, neg = zero;
            for (unsigned g = 0; g < kApplyWordTypes; ++g) {
                if (!a.count[g])
                    continue;
                const __m256i wt = load256(a.weight[g] + j);
                const __m256i cnt = load256(a.count[g] + j);
                ev = _mm256_add_epi32(ev, cnt);
                __m256i d = _mm256_mullo_epi32(cnt, wt);
                store256(a.count[g] + j, zero);
                if (a.succ[g]) {
                    const uint64_t sm = a.stochMask[g][w] & t;
                    if ((sm >> c) & 0xff)
                        d = _mm256_blendv_epi8(
                            d,
                            _mm256_mullo_epi32(load256(a.succ[g] + j),
                                               clamp256(wt, mone, one)),
                            laneMask256(sm, c));
                    store256(a.succ[g] + j, zero);
                }
                pos = _mm256_add_epi32(pos, _mm256_max_epi32(d, zero));
                neg = _mm256_add_epi32(neg, _mm256_min_epi32(d, zero));
            }
            const __m256i v0 = load256(a.v + j);
            const __m256i bad = _mm256_or_si256(
                _mm256_cmpgt_epi32(_mm256_add_epi32(v0, pos),
                                   load256(a.vHi + j)),
                _mm256_cmpgt_epi32(load256(a.vLo + j),
                                   _mm256_add_epi32(v0, neg)));
            store256(a.v + j,
                     _mm256_blendv_epi8(
                         _mm256_add_epi32(v0, _mm256_add_epi32(pos, neg)),
                         v0, bad));
            const auto b = static_cast<uint64_t>(
                _mm256_movemask_ps(_mm256_castsi256_ps(bad)));
            failed |= (b & m) << c;
        }
        events += static_cast<uint64_t>(hsum256(ev));
        if (c < rest)
            failed |= applyCountsBitsScalar(a, w, t >> c << c, events);
        a.touched[w] = failed;
    }
    return events;
}

/** One tick of encodeRates on four lanes: acc += v, and the lanes
 *  that reach the fire level set @p bit in @p bits and subtract one. */
__attribute__((target("avx2"))) inline void
rateTick256(__m256d &acc, __m256d v, __m256i &bits, __m256i bit)
{
    const __m256d one = _mm256_set1_pd(1.0);
    acc = _mm256_add_pd(acc, v);
    const __m256d fired =
        _mm256_cmp_pd(acc, _mm256_set1_pd(kRateFire), _CMP_GE_OQ);
    acc = _mm256_blendv_pd(acc, _mm256_sub_pd(acc, one), fired);
    bits = _mm256_or_si256(bits,
                           _mm256_and_si256(_mm256_castpd_si256(fired), bit));
}

/** encodeRates for AVX2: 4 recurrences per vector, kRateVectors
 *  vectors per block. */
__attribute__((target("avx2"))) void
encodeRatesAvx2(const double *values, size_t n, uint32_t window,
                uint64_t *words)
{
    constexpr size_t kLanes = 4, kBlock = kLanes * kRateVectors;
    const size_t per = (window + 63) / 64;
    for (size_t k0 = 0; k0 < n; k0 += kBlock) {
        const size_t m = std::min(kBlock, n - k0);
        alignas(32) double vals[kBlock];
        for (size_t k = 0; k < kBlock; ++k)
            vals[k] = k < m ? values[k0 + k] : 0.0;
        const __m256d v0 = _mm256_load_pd(vals);
        const __m256d v1 = _mm256_load_pd(vals + 4);
        const __m256d v2 = _mm256_load_pd(vals + 8);
        const __m256d v3 = _mm256_load_pd(vals + 12);
        __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
        for (uint32_t base = 0; base < window; base += 64) {
            const uint32_t len = std::min<uint32_t>(64, window - base);
            __m256i b0 = _mm256_setzero_si256(), b1 = b0, b2 = b0, b3 = b0;
            __m256i bit = _mm256_set1_epi64x(1);
            for (uint32_t t = 0; t < len; ++t) {
                rateTick256(a0, v0, b0, bit);
                rateTick256(a1, v1, b1, bit);
                rateTick256(a2, v2, b2, bit);
                rateTick256(a3, v3, b3, bit);
                bit = _mm256_add_epi64(bit, bit);
            }
            alignas(32) uint64_t out[kBlock];
            store256(out, b0);
            store256(out + 4, b1);
            store256(out + 8, b2);
            store256(out + 12, b3);
            for (size_t k = 0; k < m; ++k)
                words[(k0 + k) * per + base / 64] = out[k];
        }
    }
}

// ---------------------------------------------------------------
// AVX-512 kernels: 16 x i32 per vector (AVX-512F), and drawRow's
// 64 x u8 body, which needs VBMI2 and BW (probed at first use).
// ---------------------------------------------------------------

__attribute__((target("avx512f"))) inline __m512i
clamp512(__m512i x, __m512i lo, __m512i hi)
{
    return _mm512_min_epi32(_mm512_max_epi32(x, lo), hi);
}

__attribute__((target("avx512f"))) uint64_t
updateStripAvx512(const UpdateStrip &s, uint32_t n)
{
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i zero = _mm512_setzero_si512();
    uint64_t fired_bits = 0;
    uint32_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m512i x = _mm512_loadu_si512(s.v + j);
        // sg = (x > 0) - (x < 0), via mask-gated subtracts.
        __m512i sg = _mm512_mask_sub_epi32(
            zero, _mm512_cmpgt_epi32_mask(x, zero), zero,
            _mm512_set1_epi32(-1));
        sg = _mm512_mask_add_epi32(
            sg, _mm512_cmpgt_epi32_mask(zero, x), sg,
            _mm512_set1_epi32(-1));
        __m512i omega = _mm512_add_epi32(
            one, _mm512_mullo_epi32(_mm512_loadu_si512(s.rev + j),
                                    _mm512_sub_epi32(sg, one)));
        __m512i lo = _mm512_loadu_si512(s.lo + j);
        __m512i hi = _mm512_loadu_si512(s.hi + j);
        __m512i leak = _mm512_maskz_loadu_epi32(
            static_cast<__mmask16>(~(s.leakOff >> j)), s.leak + j);
        __m512i u = _mm512_add_epi32(x, _mm512_mullo_epi32(omega, leak));
        u = clamp512(u, lo, hi);
        __mmask16 fired = _mm512_cmp_epi32_mask(
            u, _mm512_loadu_si512(s.thr + j), _MM_CMPINT_NLT);
        __mmask16 neg = _mm512_cmp_epi32_mask(
            u, _mm512_loadu_si512(s.negLim + j), _MM_CMPINT_LT);
        __m512i pos = _mm512_add_epi32(
            _mm512_mullo_epi32(_mm512_loadu_si512(s.posMul + j), u),
            _mm512_loadu_si512(s.posAdd + j));
        pos = clamp512(pos, lo, hi);
        __m512i ng = _mm512_add_epi32(
            _mm512_mullo_epi32(_mm512_loadu_si512(s.negMul + j), u),
            _mm512_loadu_si512(s.negAdd + j));
        ng = clamp512(ng, lo, hi);
        __m512i out = _mm512_mask_blend_epi32(neg, u, ng);
        out = _mm512_mask_blend_epi32(fired, out, pos);
        _mm512_storeu_si512(s.v + j, out);
        fired_bits |= static_cast<uint64_t>(
                          static_cast<uint16_t>(fired))
            << j;
    }
    _mm256_zeroupper();
    return fired_bits | updateStripScalarRange(s, j, n);
}

/** One whole 16-lane chunk of countRow: full-width load and store
 *  around one masked add, so the next row's load of the chunk
 *  forwards from this store. */
__attribute__((target("avx512f"))) inline void
countChunk512(int32_t *p, __mmask16 m, __m512i one)
{
    const __m512i x = _mm512_loadu_si512(p);
    _mm512_storeu_si512(p, _mm512_mask_add_epi32(x, m, x, one));
}

/** countRow for AVX-512.  A whole word is four straight-line chunks;
 *  the chunks of a partial last word predicate their loads and
 *  stores on the row bits, so they never touch memory past lane n
 *  and need no scalar tail. */
__attribute__((target("avx512f"))) void
countRowAvx512(int32_t *lane, const uint64_t *row, uint32_t n)
{
    const __m512i one = _mm512_set1_epi32(1);
    const size_t words = (n + 63) / 64;
    for (size_t w = 0; w < words; ++w) {
        const uint64_t bits = laneBits(row, w, n);
        if (!bits)
            continue;
        int32_t *base = lane + w * 64;
        if (n - w * 64 >= 64) {
            countChunk512(base, static_cast<__mmask16>(bits), one);
            countChunk512(base + 16, static_cast<__mmask16>(bits >> 16),
                          one);
            countChunk512(base + 32, static_cast<__mmask16>(bits >> 32),
                          one);
            countChunk512(base + 48, static_cast<__mmask16>(bits >> 48),
                          one);
            continue;
        }
        for (unsigned c = 0; c < 64 && (bits >> c); c += 16) {
            const auto m = static_cast<__mmask16>(bits >> c);
            const __m512i x = _mm512_maskz_loadu_epi32(m, base + c);
            _mm512_mask_storeu_epi32(base + c, m,
                                     _mm512_add_epi32(x, one));
        }
    }
}

/** applyCounts for AVX-512: every access is predicated on the
 *  chunk's touched lanes, so a partial word needs no scalar tail. */
__attribute__((target("avx512f"))) uint64_t
applyCountsAvx512(const CountApply &a, uint32_t n)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i mone = _mm512_set1_epi32(-1);
    const size_t words = (n + 63) / 64;
    uint64_t events = 0;
    for (size_t w = 0; w < words; ++w) {
        const uint64_t t = laneBits(a.touched, w, n);
        uint64_t failed = 0;
        __m512i ev = zero;
        for (unsigned c = 0; c < 64 && (t >> c); c += 16) {
            const auto m = static_cast<__mmask16>(t >> c);
            if (!m)
                continue;
            const size_t j = w * 64 + c;
            __m512i pos = zero, neg = zero;
            for (unsigned g = 0; g < kApplyWordTypes; ++g) {
                if (!a.count[g])
                    continue;
                const __m512i wt =
                    _mm512_maskz_loadu_epi32(m, a.weight[g] + j);
                const __m512i cnt =
                    _mm512_maskz_loadu_epi32(m, a.count[g] + j);
                ev = _mm512_add_epi32(ev, cnt);
                __m512i d = _mm512_mullo_epi32(cnt, wt);
                _mm512_mask_storeu_epi32(a.count[g] + j, m, zero);
                if (a.succ[g]) {
                    const auto sm = static_cast<__mmask16>(
                        (a.stochMask[g][w] & t) >> c);
                    if (sm) {
                        d = _mm512_mask_mullo_epi32(
                            d, sm,
                            _mm512_maskz_loadu_epi32(sm, a.succ[g] + j),
                            clamp512(wt, mone, one));
                        _mm512_mask_storeu_epi32(a.succ[g] + j, sm, zero);
                    }
                }
                pos = _mm512_add_epi32(pos, _mm512_max_epi32(d, zero));
                neg = _mm512_add_epi32(neg, _mm512_min_epi32(d, zero));
            }
            const __m512i v0 = _mm512_maskz_loadu_epi32(m, a.v + j);
            __mmask16 ok = _mm512_mask_cmp_epi32_mask(
                m, _mm512_add_epi32(v0, pos),
                _mm512_maskz_loadu_epi32(m, a.vHi + j), _MM_CMPINT_LE);
            ok = _mm512_mask_cmp_epi32_mask(
                ok, _mm512_add_epi32(v0, neg),
                _mm512_maskz_loadu_epi32(m, a.vLo + j), _MM_CMPINT_NLT);
            _mm512_mask_storeu_epi32(
                a.v + j, ok,
                _mm512_add_epi32(v0, _mm512_add_epi32(pos, neg)));
            failed |= static_cast<uint64_t>(
                          static_cast<uint16_t>(m & ~ok))
                << c;
        }
        events += static_cast<uint64_t>(_mm512_reduce_add_epi32(ev));
        a.touched[w] = failed;
    }
    return events;
}

/** rateTick256 on eight lanes. */
__attribute__((target("avx512f"))) inline void
rateTick512(__m512d &acc, __m512d v, __m512i &bits, __m512i bit)
{
    acc = _mm512_add_pd(acc, v);
    const __mmask8 fired =
        _mm512_cmp_pd_mask(acc, _mm512_set1_pd(kRateFire), _CMP_GE_OQ);
    acc = _mm512_mask_sub_pd(acc, fired, acc, _mm512_set1_pd(1.0));
    bits = _mm512_mask_or_epi64(bits, fired, bits, bit);
}

/** encodeRates for AVX-512: 8 recurrences per vector, kRateVectors
 *  vectors per block. */
__attribute__((target("avx512f"))) void
encodeRatesAvx512(const double *values, size_t n, uint32_t window,
                  uint64_t *words)
{
    constexpr size_t kLanes = 8, kBlock = kLanes * kRateVectors;
    const size_t per = (window + 63) / 64;
    for (size_t k0 = 0; k0 < n; k0 += kBlock) {
        const size_t m = std::min(kBlock, n - k0);
        alignas(64) double vals[kBlock];
        for (size_t k = 0; k < kBlock; ++k)
            vals[k] = k < m ? values[k0 + k] : 0.0;
        const __m512d v0 = _mm512_load_pd(vals);
        const __m512d v1 = _mm512_load_pd(vals + 8);
        const __m512d v2 = _mm512_load_pd(vals + 16);
        const __m512d v3 = _mm512_load_pd(vals + 24);
        __m512d a0 = _mm512_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
        for (uint32_t base = 0; base < window; base += 64) {
            const uint32_t len = std::min<uint32_t>(64, window - base);
            __m512i b0 = _mm512_setzero_si512(), b1 = b0, b2 = b0, b3 = b0;
            __m512i bit = _mm512_set1_epi64(1);
            for (uint32_t t = 0; t < len; ++t) {
                rateTick512(a0, v0, b0, bit);
                rateTick512(a1, v1, b1, bit);
                rateTick512(a2, v2, b2, bit);
                rateTick512(a3, v3, b3, bit);
                bit = _mm512_add_epi64(bit, bit);
            }
            alignas(64) uint64_t out[kBlock];
            _mm512_store_si512(out, b0);
            _mm512_store_si512(out + 8, b1);
            _mm512_store_si512(out + 16, b2);
            _mm512_store_si512(out + 24, b3);
            for (size_t k = 0; k < m; ++k)
                words[(k0 + k) * per + base / 64] = out[k];
        }
    }
}

/** drawRow for AVX-512 with VBMI2 and BW: one expand-load places the
 *  word's run of stream bytes on its target lanes, and one unsigned
 *  byte compare against the |weight| lanes gives the success mask. */
__attribute__((target("avx512f,avx512bw,avx512vbmi2"))) RowDraws
drawRowVbmi2(uint64_t *succ, const uint64_t *row, const uint64_t *stoch,
             const uint8_t *absWeight, uint32_t n, uint32_t cursor)
{
    const uint8_t *bytes = Lfsr16::streamBytes();
    const size_t words = (n + 63) / 64;
    uint64_t draws = 0;
    for (size_t w = 0; w < words; ++w) {
        const __mmask64 m = laneBits(row, w, n) & stoch[w];
        const __m512i rho = _mm512_maskz_expandloadu_epi8(m, bytes + cursor);
        const __m512i wt = _mm512_maskz_loadu_epi8(m, absWeight + w * 64);
        succ[w] = _mm512_mask_cmplt_epu8_mask(m, rho, wt);
        const auto k = static_cast<unsigned>(std::popcount(m));
        draws += k;
        cursor = advanceCursor(cursor, k);
    }
    return {draws, cursor};
}

bool
hasVbmi2()
{
    static const bool has =
        __builtin_cpu_supports("avx512vbmi2") != 0 &&
        __builtin_cpu_supports("avx512bw") != 0;
    return has;
}

RowDraws
drawRowAvx512(uint64_t *succ, const uint64_t *row, const uint64_t *stoch,
              const uint8_t *absWeight, uint32_t n, uint32_t cursor)
{
    if (hasVbmi2())
        return drawRowVbmi2(succ, row, stoch, absWeight, n, cursor);
    return drawRowScalar(succ, row, stoch, absWeight, n, cursor);
}

#endif // NSCS_SIMD_X86

#ifdef NSCS_SIMD_NEON

// ---------------------------------------------------------------
// NEON kernels: 4 x i32 per vector (aarch64 baseline).
// ---------------------------------------------------------------

uint64_t
updateStripNeon(const UpdateStrip &s, uint32_t n)
{
    const int32x4_t one = vdupq_n_s32(1);
    const int32x4_t zero = vdupq_n_s32(0);
    const uint32x4_t bitsel = {1u, 2u, 4u, 8u};
    uint64_t fired_bits = 0;
    uint32_t j = 0;
    for (; j + 4 <= n; j += 4) {
        int32x4_t x = vld1q_s32(s.v + j);
        int32x4_t sg = vsubq_s32(
            vreinterpretq_s32_u32(vcgtq_s32(zero, x)),
            vreinterpretq_s32_u32(vcgtq_s32(x, zero)));
        int32x4_t omega = vaddq_s32(
            one, vmulq_s32(vld1q_s32(s.rev + j), vsubq_s32(sg, one)));
        int32x4_t lo = vld1q_s32(s.lo + j);
        int32x4_t hi = vld1q_s32(s.hi + j);
        uint32x4_t off = vtstq_u32(
            vdupq_n_u32(static_cast<uint32_t>(s.leakOff >> j) & 0xfu),
            bitsel);
        int32x4_t leak =
            vbicq_s32(vld1q_s32(s.leak + j), vreinterpretq_s32_u32(off));
        int32x4_t u = vmlaq_s32(x, omega, leak);
        u = vminq_s32(vmaxq_s32(u, lo), hi);
        uint32x4_t fired = vcgeq_s32(u, vld1q_s32(s.thr + j));
        uint32x4_t neg = vcltq_s32(u, vld1q_s32(s.negLim + j));
        int32x4_t pos = vmlaq_s32(vld1q_s32(s.posAdd + j),
                                  vld1q_s32(s.posMul + j), u);
        pos = vminq_s32(vmaxq_s32(pos, lo), hi);
        int32x4_t ng = vmlaq_s32(vld1q_s32(s.negAdd + j),
                                 vld1q_s32(s.negMul + j), u);
        ng = vminq_s32(vmaxq_s32(ng, lo), hi);
        int32x4_t out = vbslq_s32(neg, ng, u);
        out = vbslq_s32(fired, pos, out);
        vst1q_s32(s.v + j, out);
        uint32_t m = vaddvq_u32(vandq_u32(fired, bitsel));
        fired_bits |= static_cast<uint64_t>(m) << j;
    }
    return fired_bits | updateStripScalarRange(s, j, n);
}

#endif // NSCS_SIMD_NEON

// foldRow, orAccumulate, andPopcount and applyWord have no simulator
// caller, only the benchmark's kernel probes, so every level serves
// their scalar bodies.
const Ops kScalarOps = {foldRowScalar, orAccumulateScalar,
                        andPopcountScalar, updateStripScalar,
                        applyWordScalar, countRowScalar,
                        applyCountsScalar, drawRowScalar,
                        encodeRatesScalar};

#ifdef NSCS_SIMD_X86
// drawRow's vector body needs a byte expand (VBMI2), so AVX2 runs the
// scalar table walk.
const Ops kAvx2Ops = {foldRowScalar, orAccumulateScalar,
                      andPopcountScalar, updateStripAvx2,
                      applyWordScalar, countRowAvx2,
                      applyCountsAvx2, drawRowScalar,
                      encodeRatesAvx2};
const Ops kAvx512Ops = {foldRowScalar, orAccumulateScalar,
                        andPopcountScalar, updateStripAvx512,
                        applyWordScalar, countRowAvx512,
                        applyCountsAvx512, drawRowAvx512,
                        encodeRatesAvx512};
#endif
#ifdef NSCS_SIMD_NEON
// countRow, applyCounts, drawRow and encodeRates stay scalar on NEON
// until a vector body has been measured against them on aarch64
// hardware.
const Ops kNeonOps = {foldRowScalar, orAccumulateScalar,
                      andPopcountScalar, updateStripNeon,
                      applyWordScalar, countRowScalar,
                      applyCountsScalar, drawRowScalar,
                      encodeRatesScalar};
#endif

Level
detectImpl()
{
#ifdef NSCS_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return Level::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
    return Level::Scalar;
#elif defined(NSCS_SIMD_NEON)
    return Level::Neon;
#else
    return Level::Scalar;
#endif
}

constexpr uint8_t kLevelUnset = 0xff;

/** The pinned level; kLevelUnset until first use resolves it. */
std::atomic<uint8_t> activeStore{kLevelUnset};

/** Startup level: the NSCS_SIMD override when valid, else probe. */
Level
initialLevel()
{
    const char *env = std::getenv("NSCS_SIMD");
    Level l;
    if (env && *env && parseLevel(env, l) && levelAvailable(l))
        return l;
    return detectedLevel();
}

} // anonymous namespace

Level
detectedLevel()
{
    static const Level level = detectImpl();
    return level;
}

bool
levelAvailable(Level l)
{
    switch (l) {
      case Level::Scalar:
        return true;
      case Level::Avx2:
        return detectedLevel() == Level::Avx2 ||
            detectedLevel() == Level::Avx512;
      case Level::Avx512:
      case Level::Neon:
        return detectedLevel() == l;
    }
    return false;
}

Level
activeLevel()
{
    uint8_t a = activeStore.load(std::memory_order_acquire);
    if (a != kLevelUnset)
        return static_cast<Level>(a);
    uint8_t init = static_cast<uint8_t>(initialLevel());
    uint8_t expected = kLevelUnset;
    activeStore.compare_exchange_strong(expected, init,
                                        std::memory_order_acq_rel);
    return static_cast<Level>(
        activeStore.load(std::memory_order_acquire));
}

bool
setActiveLevel(Level l)
{
    if (!levelAvailable(l))
        return false;
    activeStore.store(static_cast<uint8_t>(l),
                      std::memory_order_release);
    return true;
}

std::vector<Level>
availableLevels()
{
    std::vector<Level> out;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512,
                    Level::Neon})
        if (levelAvailable(l))
            out.push_back(l);
    return out;
}

const char *
levelName(Level l)
{
    switch (l) {
      case Level::Scalar:
        return "scalar";
      case Level::Avx2:
        return "avx2";
      case Level::Avx512:
        return "avx512";
      case Level::Neon:
        return "neon";
    }
    return "scalar";
}

bool
parseLevel(const char *name, Level &out)
{
    if (!name)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        out = Level::Scalar;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        out = Level::Avx2;
        return true;
    }
    if (std::strcmp(name, "avx512") == 0) {
        out = Level::Avx512;
        return true;
    }
    if (std::strcmp(name, "neon") == 0) {
        out = Level::Neon;
        return true;
    }
    if (std::strcmp(name, "native") == 0) {
        out = detectedLevel();
        return true;
    }
    return false;
}

const Ops &
opsFor(Level l)
{
    switch (l) {
#ifdef NSCS_SIMD_X86
      case Level::Avx2:
        return kAvx2Ops;
      case Level::Avx512:
        return kAvx512Ops;
#endif
#ifdef NSCS_SIMD_NEON
      case Level::Neon:
        return kNeonOps;
#endif
      default:
        return kScalarOps;
    }
}

const Ops &
ops()
{
    return opsFor(activeLevel());
}

} // namespace simd
} // namespace nscs
