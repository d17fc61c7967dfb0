/**
 * @file
 * AVX2 kernels. Compiled with -mavx2 -mfma; nothing in this TU may be
 * inlined elsewhere (see simd.hh).
 *
 * fp32: two 8-lane accumulator vectors per micro-tile row, one VFMADD
 * per vector per k step. The 8-row panel runs as two 4×16 halves, one
 * after the other over the whole k range: each half keeps eight
 * independent FMA chains in flight and fits the sixteen ymm registers
 * with its two B vectors and the broadcast, where the whole 8×16 tile
 * would spill. A tile of at most four live rows runs only its first
 * half. C-edge tiles use VMASKMOVPS so there is no separate tail path;
 * the packed panels are already zero-padded along both k and n.
 *
 * int8: the VPMADDUBSW sign trick (ggml-style) with output channels on
 * the lanes. Each 64-byte pack step is read as two 8-channel halves of
 * [8 ch × 4 k] (only the low half when a group has at most eight live
 * channels, as in the decoder's 3-channel head); a panel row's four
 * signed activation codes for that step, read in place through the
 * row's tap pointer, are broadcast to every lane. |w| is the unsigned
 * operand — computed once per step for the whole tile — and sign(w)·a
 * the signed one, so each product is a·w. Quantization never produces
 * -128, which bounds every s16 pair sum by 2·127·127 < 32767 —
 * VPMADDUBSW cannot saturate.
 * VPMADDWD against ones then yields exact int32 4-element sums, added
 * over the block's eight steps into one exact block dot per (row,
 * channel).
 */

#if defined(__AVX2__)

#include <immintrin.h>

#include <cfloat>
#include <cstring>

#include "tensor/kernels.hh"
#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

static_assert(kMicroM == 8 && kMicroN == 16,
              "the fp32 tile is two four-row halves of two 8-lane vectors");

/** Lane mask for an 8-float vector covering lanes [base, base+8) of a
 *  row whose live extent is @p nr. */
inline __m256i
laneMask(int nr, int base)
{
    const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(nr - base), idx);
}

/** The four signed activation codes at @p p in every 32-bit lane. */
inline __m256i
broadcastCodes(const std::int8_t *p)
{
    std::int32_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return _mm256_set1_epi32(v);
}

/**
 * MR panel rows × the first NH 8-channel halves of 16-channel group
 * @p g (NH = 1 when the group has at most eight live channels). Row r's
 * tap pointers are q[r·taps + t] and s[r·taps + t]. Per block, the
 * int32 accumulators collect the exact block dots, then one convert,
 * one scale product and one fused multiply-add per lane extend each
 * output's chain.
 */
template <int MR, int NH>
inline void
panelTileAvx2(const std::int8_t *const *q, const float *const *s,
              std::int64_t taps, const Q8PackView &w, std::int64_t g,
              float *c, std::int64_t ldc, int live)
{
    const std::int64_t nb = w.nb;
    const std::int64_t nbt = nb / taps;
    const __m256i ones = _mm256_set1_epi16(1);
    const std::int8_t *wb = w.codes + g * nb * 512;
    const float *ws = w.scales + g * nb * 16;
    __m256 acc[MR][NH];
    for (int r = 0; r < MR; ++r)
        for (int h = 0; h < NH; ++h)
            acc[r][h] = _mm256_setzero_ps();
    for (std::int64_t t = 0; t < taps; ++t) {
        const std::int8_t *ab[MR];
        const float *as[MR];
        for (int r = 0; r < MR; ++r) {
            ab[r] = q[r * taps + t];
            as[r] = s[r * taps + t];
        }
        for (std::int64_t j = 0; j < nbt; ++j, wb += 512, ws += 16) {
            __m256i d[MR][NH];
            for (int r = 0; r < MR; ++r)
                for (int h = 0; h < NH; ++h)
                    d[r][h] = _mm256_setzero_si256();
            for (int st = 0; st < 8; ++st) {
                // |w| is the unsigned operand and sign(w)·a the signed
                // one: |w| serves every row of the tile.
                __m256i wv[NH], wx[NH];
                for (int h = 0; h < NH; ++h) {
                    wv[h] = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(wb + st * 64
                                                          + 32 * h));
                    wx[h] = _mm256_abs_epi8(wv[h]);
                }
                for (int r = 0; r < MR; ++r) {
                    const __m256i a = broadcastCodes(ab[r] + j * 32 + 4 * st);
                    for (int h = 0; h < NH; ++h)
                        d[r][h] = _mm256_add_epi32(
                            d[r][h],
                            _mm256_madd_epi16(
                                _mm256_maddubs_epi16(
                                    wx[h], _mm256_sign_epi8(a, wv[h])),
                                ones));
                }
            }
            for (int h = 0; h < NH; ++h) {
                const __m256 sw = _mm256_loadu_ps(ws + 8 * h);
                for (int r = 0; r < MR; ++r)
                    acc[r][h] = _mm256_fmadd_ps(
                        _mm256_mul_ps(_mm256_set1_ps(as[r][j]), sw),
                        _mm256_cvtepi32_ps(d[r][h]), acc[r][h]);
            }
        }
    }
    for (int h = 0; h < NH; ++h) {
        const __m256i m = laneMask(live, 8 * h);
        for (int r = 0; r < MR; ++r)
            _mm256_maskstore_ps(c + r * ldc + g * 16 + 8 * h, m, acc[r][h]);
    }
}

/** Every row of the panel against group @p g, in tiles of MR rows and
 *  then single rows. */
template <int MR, int NH>
inline void
panelRowsAvx2(const std::int8_t *const *q, const float *const *s,
              std::int64_t rows, std::int64_t taps, const Q8PackView &w,
              std::int64_t g, float *c, std::int64_t ldc, int live)
{
    std::int64_t r = 0;
    for (; r + MR <= rows; r += MR)
        panelTileAvx2<MR, NH>(q + r * taps, s + r * taps, taps, w, g,
                              c + r * ldc, ldc, live);
    for (; r < rows; ++r)
        panelTileAvx2<1, NH>(q + r * taps, s + r * taps, taps, w, g,
                             c + r * ldc, ldc, live);
}

/** Horizontal unsigned max of the eight 32-bit lanes of @p v. */
inline unsigned
reduceMaxU32(__m256i v)
{
    __m128i m = _mm_max_epu32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
    m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
    return static_cast<unsigned>(_mm_cvtsi128_si32(m));
}

/**
 * Four rows of the micro-tile: panel rows r0 .. r0+3 when @p ap points
 * at row r0 of the packed A panel (still kMicroM floats per k step) and
 * @p c at C's row r0; @p mr live rows counted from there.
 */
inline void
microHalfAvx2(std::int64_t kc, const float *ap, const float *bp, float *c,
              std::int64_t ldc, int mr, __m256i m0, __m256i m1, bool first)
{
    // Every row loop is unrolled, so the accumulators stay in
    // registers.
    __m256 acc[4][2];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
        if (!first && r < mr) {
            acc[r][0] = _mm256_maskload_ps(c + r * ldc, m0);
            acc[r][1] = _mm256_maskload_ps(c + r * ldc + 8, m1);
        } else {
            acc[r][0] = _mm256_setzero_ps();
            acc[r][1] = _mm256_setzero_ps();
        }
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bp + kk * kMicroN);
        const __m256 b1 = _mm256_loadu_ps(bp + kk * kMicroN + 8);
        const float *arow = ap + kk * kMicroM;
#pragma GCC unroll 4
        for (int r = 0; r < 4; ++r) {
            const __m256 av = _mm256_broadcast_ss(arow + r);
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < 4 && r < mr; ++r) {
        _mm256_maskstore_ps(c + r * ldc, m0, acc[r][0]);
        _mm256_maskstore_ps(c + r * ldc + 8, m1, acc[r][1]);
    }
}

} // namespace

void
microF32Avx2(std::int64_t kc, const float *ap, const float *bp, float *c,
             std::int64_t ldc, int mr, int nr, bool first)
{
    const __m256i m0 = laneMask(nr, 0);
    const __m256i m1 = laneMask(nr, 8);
    for (int r0 = 0; r0 < mr; r0 += kMicroM / 2)
        microHalfAvx2(kc, ap + r0, bp, c + r0 * ldc, ldc, mr - r0, m0, m1,
                      first);
}

void
dotQ8PanelAvx2(const std::int8_t *const *q, const float *const *s,
               std::int64_t rows, std::int64_t taps, const Q8PackView &w,
               float *c, std::int64_t ldc)
{
    for (std::int64_t g = 0; g * 16 < w.cout; ++g) {
        const int live =
            static_cast<int>(w.cout - g * 16 < 16 ? w.cout - g * 16 : 16);
        if (live > 8)
            panelRowsAvx2<2, 2>(q, s, rows, taps, w, g, c, ldc, live);
        else
            panelRowsAvx2<4, 1>(q, s, rows, taps, w, g, c, ldc, live);
    }
}

void
quantizeRowAvx2(const float *src, std::int64_t k, std::int8_t *q,
                float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
    const __m256i inf_bits = _mm256_set1_epi32(0x7F800000);
    const __m256i c127 = _mm256_castps_si256(_mm256_set1_ps(127.0f));
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        // A tail block loads zeros past k, which code 0 and leave the
        // absmax alone — same codes as an element-wise tail.
        __m256 v[4];
        __m256i a[4];
        for (int h = 0; h < 4; ++h) {
            v[h] = lo + 32 <= k
                       ? _mm256_loadu_ps(src + lo + 8 * h)
                       : _mm256_maskload_ps(
                             src + lo + 8 * h,
                             laneMask(static_cast<int>(k - lo), 8 * h));
            a[h] = _mm256_and_si256(_mm256_castps_si256(v[h]), abs_mask);
        }
        // |x| bit patterns order like the values, and NaN/Inf patterns
        // sort above every finite one: the integer max is the absmax,
        // and tells whether the block is all finite. Otherwise take it
        // again over the finite lanes only.
        unsigned bits = reduceMaxU32(
            _mm256_max_epu32(_mm256_max_epu32(a[0], a[1]),
                             _mm256_max_epu32(a[2], a[3])));
        const bool all_finite = bits < 0x7F800000u;
        if (!all_finite) {
            __m256i mx = _mm256_setzero_si256();
            for (int h = 0; h < 4; ++h)
                mx = _mm256_max_epu32(
                    mx, _mm256_and_si256(a[h],
                                         _mm256_cmpgt_epi32(inf_bits, a[h])));
            bits = reduceMaxU32(mx);
        }
        float amax = 0.0f;
        std::memcpy(&amax, &bits, sizeof(amax));
        const bool normal = amax >= 127.0f / FLT_MAX;
        const float inv = normal ? 127.0f / amax : 0.0f;
        scales[b] = normal ? amax / 127.0f : 0.0f;
        const __m256 iv = _mm256_set1_ps(inv);
        __m256i iq[4];
        for (int h = 0; h < 4; ++h) {
            __m256 y = _mm256_mul_ps(v[h], iv);
            if (!all_finite) {
                // Non-finite lanes: ±Inf -> ±127, NaN -> 0.
                const __m256i fin = _mm256_cmpgt_epi32(inf_bits, a[h]);
                const __m256i inf = _mm256_cmpeq_epi32(a[h], inf_bits);
                const __m256i special = _mm256_and_si256(
                    _mm256_or_si256(
                        _mm256_andnot_si256(abs_mask,
                                            _mm256_castps_si256(v[h])),
                        c127),
                    inf);
                y = _mm256_blendv_ps(_mm256_castsi256_ps(special), y,
                                     _mm256_castsi256_ps(fin));
            }
            // Round-to-nearest-even conversion — identical to the
            // scalar nearbyintf under the default rounding mode.
            iq[h] = _mm256_cvtps_epi32(y);
        }
        // Narrow 32 s32 -> 32 s8. The saturating packs are
        // value-preserving (everything is in ±127); the permute undoes
        // their per-128-bit-lane interleaving.
        iq[0] = _mm256_packs_epi32(iq[0], iq[1]);
        iq[2] = _mm256_packs_epi32(iq[2], iq[3]);
        iq[0] = _mm256_packs_epi16(iq[0], iq[2]);
        const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(q + lo),
                            _mm256_permutevar8x32_epi32(iq[0], perm));
    }
}

void
affineReluRowAvx2(const float *src, const float *a, const float *b,
                  std::int64_t k, bool relu, float *dst)
{
    const __m256 zero = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= k; j += 8) {
        __m256 v = _mm256_fmadd_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(src + j),
                                   _mm256_loadu_ps(b + j));
        if (relu)
            // max(v, +0): the second operand is returned for (-0, +0)
            // ties, matching the scalar v > 0 ? v : 0.
            v = _mm256_max_ps(v, zero);
        _mm256_storeu_ps(dst + j, v);
    }
    for (; j < k; ++j) {
        const __m128 v = _mm_fmadd_ss(_mm_set_ss(a[j]), _mm_set_ss(src[j]),
                                      _mm_set_ss(b[j]));
        const float f = _mm_cvtss_f32(relu ? _mm_max_ss(v, _mm_setzero_ps())
                                           : v);
        dst[j] = f;
    }
}

void
dequantizeRowAvx2(const std::int8_t *q, const float *scales,
                  std::int64_t k, float *dst)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const float s = scales[b];
        if (lo + 32 <= k) {
            const __m256 sv = _mm256_set1_ps(s);
            for (int h = 0; h < 4; ++h) {
                const __m128i q8 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(q + lo + 8 * h));
                const __m256i q32 = _mm256_cvtepi8_epi32(q8);
                const __m256 f = _mm256_cvtepi32_ps(q32);
                _mm256_storeu_ps(dst + lo + 8 * h,
                                 _mm256_mul_ps(f, sv));
            }
        } else {
            for (std::int64_t jj = lo; jj < k; ++jj)
                dst[jj] = static_cast<float>(q[jj]) * s;
        }
    }
}

} // namespace leca::simd::detail

#endif // __AVX2__
