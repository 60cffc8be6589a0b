/**
 * @file
 * Vectorized tag-probe kernels over structure-of-arrays tag planes.
 *
 * Every set-indexed array in the simulator stores its tags as one
 * contiguous plane of std::uint64_t words, one row per set, padded to a
 * power-of-two stride (mem/set_assoc_cache.hh, nurapid/tag_array.hh,
 * nuca/dnuca.hh, nurapid/coupled_nuca.hh). A probe is then a dense
 * linear compare of one row against a broadcast needle, returning a
 * bitmask with bit w set when tags[w] == needle.
 *
 * The caller ANDs the result with its per-set valid bitmap, which also
 * clears any padding lanes past the real associativity — the kernels
 * may therefore read (and match) pad words freely. Way counts are
 * capped at 64 so one mask word always covers a row.
 *
 * Three implementations, selected by what the compiler target supports
 * (the build probes the host for AVX2, then SSE4.1, at configure time):
 *   AVX2     4 tags per step (_mm256_cmpeq_epi64)
 *   SSE4.1   2 tags per step (_mm_cmpeq_epi64)
 *   NEON     2 tags per step (vceqq_u64)
 * with a portable scalar fallback, used on targets with none of them.
 * The scalar kernels are always compiled (as probeMatchScalar /
 * probeMatchMaskedScalar) so equivalence tests can compare the two
 * paths in the same binary.
 *
 * The masked variants implement D-NUCA's partial-tag smart-search
 * compare, (tags[w] & mask) == needle, with the same lane order.
 *
 * Bit-identity with the old per-Line scalar loops: a match mask is
 * order-free, and every consumer reduces it with countr_zero (first
 * match) or 63 - countl_zero (last match) to reproduce its historical
 * scan direction exactly. The audited no-duplicate-tag invariant makes
 * first and last match coincide on clean state anyway.
 */

#ifndef NURAPID_MEM_TAG_PROBE_HH
#define NURAPID_MEM_TAG_PROBE_HH

#include <cstdint>

#if defined(__AVX2__)
#  include <immintrin.h>
#  define NURAPID_PROBE_AVX2 1
#elif defined(__SSE4_1__)
#  include <smmintrin.h>
#  define NURAPID_PROBE_SSE41 1
#elif defined(__aarch64__)
#  include <arm_neon.h>
#  define NURAPID_PROBE_NEON 1
#endif

namespace nurapid {

/** Scalar reference: bit w set iff tags[w] == needle, w < n. */
inline std::uint64_t
probeMatchScalar(const std::uint64_t *tags, std::uint32_t n,
                 std::uint64_t needle)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        m |= std::uint64_t{tags[w] == needle} << w;
    return m;
}

/** Scalar reference: bit w set iff (tags[w] & mask) == needle. */
inline std::uint64_t
probeMatchMaskedScalar(const std::uint64_t *tags, std::uint32_t n,
                       std::uint64_t mask, std::uint64_t needle)
{
    std::uint64_t m = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        m |= std::uint64_t{(tags[w] & mask) == needle} << w;
    return m;
}

/**
 * Match mask of one tag row: bit w set iff tags[w] == needle.
 * @p n is the row's padded stride (a power of two); rows narrower than
 * one vector fall through to the scalar loop.
 */
inline std::uint64_t
probeMatch(const std::uint64_t *tags, std::uint32_t n,
           std::uint64_t needle)
{
#if defined(NURAPID_PROBE_AVX2)
    if (n >= 4) {
        std::uint64_t m = 0;
        const __m256i vneedle =
            _mm256_set1_epi64x(static_cast<long long>(needle));
        for (std::uint32_t w = 0; w + 4 <= n; w += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(tags + w));
            const __m256i eq = _mm256_cmpeq_epi64(v, vneedle);
            const unsigned lanes = static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
            m |= std::uint64_t{lanes} << w;
        }
        return m;
    }
#elif defined(NURAPID_PROBE_SSE41)
    if (n >= 2) {
        std::uint64_t m = 0;
        const __m128i vneedle =
            _mm_set1_epi64x(static_cast<long long>(needle));
        for (std::uint32_t w = 0; w + 2 <= n; w += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(tags + w));
            const __m128i eq = _mm_cmpeq_epi64(v, vneedle);
            const unsigned lanes = static_cast<unsigned>(
                _mm_movemask_pd(_mm_castsi128_pd(eq)));
            m |= std::uint64_t{lanes} << w;
        }
        return m;
    }
#elif defined(NURAPID_PROBE_NEON)
    if (n >= 2) {
        std::uint64_t m = 0;
        const uint64x2_t vneedle = vdupq_n_u64(needle);
        for (std::uint32_t w = 0; w + 2 <= n; w += 2) {
            const uint64x2_t eq = vceqq_u64(vld1q_u64(tags + w), vneedle);
            m |= (vgetq_lane_u64(eq, 0) & 1) << w;
            m |= (vgetq_lane_u64(eq, 1) & 1) << (w + 1);
        }
        return m;
    }
#endif
    return probeMatchScalar(tags, n, needle);
}

/**
 * Masked match mask of one tag row: bit w set iff
 * (tags[w] & mask) == needle — the partial-tag smart-search compare.
 */
inline std::uint64_t
probeMatchMasked(const std::uint64_t *tags, std::uint32_t n,
                 std::uint64_t mask, std::uint64_t needle)
{
#if defined(NURAPID_PROBE_AVX2)
    if (n >= 4) {
        std::uint64_t m = 0;
        const __m256i vmask =
            _mm256_set1_epi64x(static_cast<long long>(mask));
        const __m256i vneedle =
            _mm256_set1_epi64x(static_cast<long long>(needle));
        for (std::uint32_t w = 0; w + 4 <= n; w += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(tags + w));
            const __m256i eq =
                _mm256_cmpeq_epi64(_mm256_and_si256(v, vmask), vneedle);
            const unsigned lanes = static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
            m |= std::uint64_t{lanes} << w;
        }
        return m;
    }
#elif defined(NURAPID_PROBE_SSE41)
    if (n >= 2) {
        std::uint64_t m = 0;
        const __m128i vmask =
            _mm_set1_epi64x(static_cast<long long>(mask));
        const __m128i vneedle =
            _mm_set1_epi64x(static_cast<long long>(needle));
        for (std::uint32_t w = 0; w + 2 <= n; w += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(tags + w));
            const __m128i eq =
                _mm_cmpeq_epi64(_mm_and_si128(v, vmask), vneedle);
            const unsigned lanes = static_cast<unsigned>(
                _mm_movemask_pd(_mm_castsi128_pd(eq)));
            m |= std::uint64_t{lanes} << w;
        }
        return m;
    }
#elif defined(NURAPID_PROBE_NEON)
    if (n >= 2) {
        std::uint64_t m = 0;
        const uint64x2_t vmask = vdupq_n_u64(mask);
        const uint64x2_t vneedle = vdupq_n_u64(needle);
        for (std::uint32_t w = 0; w + 2 <= n; w += 2) {
            const uint64x2_t eq = vceqq_u64(
                vandq_u64(vld1q_u64(tags + w), vmask), vneedle);
            m |= (vgetq_lane_u64(eq, 0) & 1) << w;
            m |= (vgetq_lane_u64(eq, 1) & 1) << (w + 1);
        }
        return m;
    }
#endif
    return probeMatchMaskedScalar(tags, n, mask, needle);
}

/** Exchanges bits @p a and @p b of @p word (plane-swap helper for the
 *  promotion/demotion paths that exchange two ways' valid/dirty bits). */
inline void
swapBits(std::uint64_t &word, std::uint32_t a, std::uint32_t b)
{
    const std::uint64_t diff =
        ((word >> a) ^ (word >> b)) & 1;
    word ^= (diff << a) | (diff << b);
}

} // namespace nurapid

#endif // NURAPID_MEM_TAG_PROBE_HH
