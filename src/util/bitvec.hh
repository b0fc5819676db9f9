/**
 * @file
 * A compact dynamic bit vector (configuration crossbar rows, fired
 * masks) and a read-only view of bits held in someone else's words
 * (a scheduler slot plane or a crossbar row in their flat arrays),
 * both with fast iteration over set bits.
 *
 * std::vector<bool> lacks word access and std::bitset is fixed-size;
 * crossbar geometry is a runtime parameter, so NSCS carries its own
 * minimal implementation.
 */

#ifndef NSCS_UTIL_BITVEC_HH
#define NSCS_UTIL_BITVEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nscs {

/** Hex encoding of @p n words (16 lowercase digits per word, word 0
 *  first): the snapshot form of a bit vector, slot or row. */
std::string wordsToHex(const uint64_t *words, size_t n);

/**
 * Decode a wordsToHex() string of exactly (nbits + 63) / 64 words
 * into @p out.  @return false on a wrong length, a non-hex digit or a
 * set bit at or beyond @p nbits; @p out is unchanged on failure.
 */
bool wordsFromHex(const std::string &hex, uint64_t *out, size_t nbits);

/**
 * Read-only view of @p nbits bits in caller-owned 64-bit words, which
 * the owner keeps clear at and beyond bit size().
 */
class BitSpan
{
  public:
    BitSpan(const uint64_t *words, size_t nbits)
        : words_(words), nbits_(nbits)
    {
    }

    /** Number of bits. */
    size_t size() const { return nbits_; }

    /** Number of backing words. */
    size_t numWords() const { return (nbits_ + 63) / 64; }

    /** The backing words. */
    const uint64_t *data() const { return words_; }

    /** @return number of set bits. */
    size_t count() const;

    /** Call @p fn(size_t index) for every set bit, ascending. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        const size_t words = numWords();
        for (size_t w = 0; w < words; ++w) {
            uint64_t bits = words_[w];
            while (bits) {
                unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
                fn(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }

  private:
    const uint64_t *words_;
    size_t nbits_;
};

/**
 * Fixed-length (at construction) vector of bits backed by 64-bit
 * words.  All index arguments are asserted in range in debug terms via
 * bounds checks kept cheap enough for release builds.
 */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct @p nbits bits, all clear. */
    explicit BitVec(size_t nbits);

    /** Number of bits. */
    size_t size() const { return nbits_; }

    /** Set bit @p idx to @p value. */
    void set(size_t idx, bool value = true);

    /** Clear bit @p idx. */
    void clear(size_t idx) { set(idx, false); }

    /** Clear all bits. */
    void reset();

    /** @return number of set bits. */
    size_t count() const { return span().count(); }

    /** @return true if no bit is set. */
    bool none() const;

    /** @return true if any bit is set. */
    bool any() const { return !none(); }

    /**
     * OR @p bits into backing word @p word_index.  The caller must
     * not set bits beyond size() (i.e. @p bits must come from a
     * same-width vector's word at the same index).
     */
    void
    orWordAt(size_t word_index, uint64_t bits)
    {
        words_[word_index] |= bits;
    }

    /** Equality compares size and content. */
    bool operator==(const BitVec &other) const = default;

    /**
     * Call @p fn(size_t index) for every set bit in increasing index
     * order.  This is the hot path of synaptic integration: it scans
     * words and extracts set bits with countr_zero.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        span().forEachSet(fn);
    }

    /** Direct word access (serialization). */
    const std::vector<uint64_t> &words() const { return words_; }

    /** Read-only view of the bits. */
    BitSpan span() const { return {words_.data(), nbits_}; }

    /** Approximate heap footprint in bytes. */
    size_t footprintBytes() const { return words_.size() * 8; }

  private:
    size_t nbits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace nscs

#endif // NSCS_UTIL_BITVEC_HH
