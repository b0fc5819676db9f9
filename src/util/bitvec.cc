#include "util/bitvec.hh"

#include <algorithm>

#include "util/logging.hh"

namespace nscs {

BitVec::BitVec(size_t nbits)
    : nbits_(nbits), words_((nbits + 63) / 64, 0)
{
}

void
BitVec::set(size_t idx, bool value)
{
    NSCS_ASSERT(idx < nbits_, "BitVec::set(%zu) out of range %zu",
                idx, nbits_);
    uint64_t mask = 1ull << (idx & 63);
    if (value)
        words_[idx >> 6] |= mask;
    else
        words_[idx >> 6] &= ~mask;
}

bool
BitVec::test(size_t idx) const
{
    NSCS_ASSERT(idx < nbits_, "BitVec::test(%zu) out of range %zu",
                idx, nbits_);
    return (words_[idx >> 6] >> (idx & 63)) & 1ull;
}

bool
BitSpan::test(size_t idx) const
{
    NSCS_ASSERT(idx < nbits_, "BitSpan::test(%zu) out of range %zu",
                idx, nbits_);
    return (words_[idx >> 6] >> (idx & 63)) & 1ull;
}

void
BitVec::reset()
{
    for (auto &w : words_)
        w = 0;
}

size_t
BitSpan::count() const
{
    size_t n = 0;
    const size_t words = numWords();
    for (size_t w = 0; w < words; ++w)
        n += static_cast<size_t>(__builtin_popcountll(words_[w]));
    return n;
}

bool
BitVec::none() const
{
    for (uint64_t w : words_)
        if (w)
            return false;
    return true;
}

namespace {

const char kHexDigits[] = "0123456789abcdef";

/** @return the value of hex digit @p c, or -1 if not a hex digit. */
int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::string
wordsToHex(const uint64_t *words, size_t n)
{
    std::string out;
    out.reserve(n * 16);
    for (size_t i = 0; i < n; ++i)
        for (int shift = 60; shift >= 0; shift -= 4)
            out.push_back(kHexDigits[(words[i] >> shift) & 0xF]);
    return out;
}

bool
wordsFromHex(const std::string &hex, uint64_t *out, size_t nbits)
{
    const size_t n = (nbits + 63) / 64;
    if (hex.size() != n * 16)
        return false;
    std::vector<uint64_t> decoded(n, 0);
    for (size_t w = 0; w < n; ++w) {
        uint64_t value = 0;
        for (size_t d = 0; d < 16; ++d) {
            int v = hexValue(hex[w * 16 + d]);
            if (v < 0)
                return false;
            value = (value << 4) | static_cast<uint64_t>(v);
        }
        decoded[w] = value;
    }
    if (n != 0 && (nbits & 63) != 0) {
        uint64_t mask = ~0ull >> (64 - (nbits & 63));
        if (decoded.back() & ~mask)
            return false;
    }
    std::copy(decoded.begin(), decoded.end(), out);
    return true;
}

} // namespace nscs
