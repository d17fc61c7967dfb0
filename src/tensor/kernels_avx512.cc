/**
 * @file
 * AVX-512 (F/BW/VL) kernels. Compiled with -mavx512f -mavx512bw
 * -mavx512vl; nothing here may be inlined elsewhere (see simd.hh).
 *
 * fp32: one 16-lane accumulator vector per micro-tile row — the whole
 * kMicroN extent in a single register — so the 8×16 tile keeps eight
 * independent VFMADD chains in flight, enough to cover the FMA latency
 * on both ports. A tile of at most four live rows runs a 4×16 body.
 * Masked C loads/stores let edge tiles share the main path.
 *
 * There is no AVX-512 int8 panel without VNNI (VPSIGNB does not exist
 * in EVEX form); isa.cc pairs this set's microF32 with the VNNI panel
 * when the host has it and the AVX2 panel otherwise.
 */

#if defined(__AVX512F__) && defined(__AVX512BW__)

// GCC bug 105593: avx512fintrin.h raises a false -Wmaybe-uninitialized
// once inlined; silence it for the header only (Clang lacks the group).
#pragma GCC diagnostic push
#ifndef __clang__
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cfloat>
#include <cstring>

#include "tensor/kernels.hh"
#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

static_assert(kMicroM == 8 && kMicroN == 16,
              "the fp32 tile is eight rows of one 16-lane vector");

/** The first R rows of the panel; @p m masks the live lanes. */
template <int R>
inline void
microTileAvx512(std::int64_t kc, const float *ap, const float *bp, float *c,
                std::int64_t ldc, int mr, __mmask16 m, bool first)
{
    __m512 acc[R];
    for (int r = 0; r < R; ++r)
        acc[r] = (!first && r < mr) ? _mm512_maskz_loadu_ps(m, c + r * ldc)
                                    : _mm512_setzero_ps();
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_loadu_ps(bp + kk * kMicroN);
        const float *arow = ap + kk * kMicroM;
        for (int r = 0; r < R; ++r)
            acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r]), b, acc[r]);
    }
    for (int r = 0; r < mr; ++r)
        _mm512_mask_storeu_ps(c + r * ldc, m, acc[r]);
}

} // namespace

// Starts on a 64-byte boundary, so where its FMA loops fall within the
// instruction fetch blocks does not depend on the size of the code
// linked ahead of this TU: a 32-byte shift mod 64 of this function
// alone has moved train_analog's p50 by about 10%.
__attribute__((aligned(64))) void
microF32Avx512(std::int64_t kc, const float *ap, const float *bp, float *c,
               std::int64_t ldc, int mr, int nr, bool first)
{
    const __mmask16 m =
        nr >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << nr) - 1u);
    if (mr <= kMicroM / 2)
        microTileAvx512<kMicroM / 2>(kc, ap, bp, c, ldc, mr, m, first);
    else
        microTileAvx512<kMicroM>(kc, ap, bp, c, ldc, mr, m, first);
}

void
quantizeRowAvx512(const float *src, std::int64_t k, std::int8_t *q,
                  float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    const __m512i abs_mask = _mm512_set1_epi32(0x7FFFFFFF);
    const __m512i inf_bits = _mm512_set1_epi32(0x7F800000);
    const __m512i c127 = _mm512_castps_si512(_mm512_set1_ps(127.0f));
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        // A tail block loads zeros past k, which code 0 and leave the
        // absmax alone — same codes as an element-wise tail.
        __m512 v[2];
        __m512i a[2];
        if (lo + 32 <= k) {
            v[0] = _mm512_loadu_ps(src + lo);
            v[1] = _mm512_loadu_ps(src + lo + 16);
        } else {
            const std::uint32_t live =
                (1u << static_cast<unsigned>(k - lo)) - 1u;
            v[0] = _mm512_maskz_loadu_ps(static_cast<__mmask16>(live),
                                         src + lo);
            v[1] = _mm512_maskz_loadu_ps(static_cast<__mmask16>(live >> 16),
                                         src + lo + 16);
        }
        for (int h = 0; h < 2; ++h)
            a[h] = _mm512_and_si512(_mm512_castps_si512(v[h]), abs_mask);
        // |x| bit patterns order like the values, and NaN/Inf patterns
        // sort above every finite one: the integer max is the absmax,
        // and tells whether the block is all finite. Otherwise take it
        // again over the finite lanes only.
        unsigned bits = _mm512_reduce_max_epu32(_mm512_max_epu32(a[0], a[1]));
        const bool all_finite = bits < 0x7F800000u;
        if (!all_finite) {
            __m512i mx = _mm512_setzero_si512();
            for (int h = 0; h < 2; ++h)
                mx = _mm512_max_epu32(
                    mx, _mm512_maskz_mov_epi32(
                            _mm512_cmplt_epu32_mask(a[h], inf_bits), a[h]));
            bits = _mm512_reduce_max_epu32(mx);
        }
        float amax = 0.0f;
        std::memcpy(&amax, &bits, sizeof(amax));
        const bool normal = amax >= 127.0f / FLT_MAX;
        const float inv = normal ? 127.0f / amax : 0.0f;
        scales[b] = normal ? amax / 127.0f : 0.0f;
        const __m512 iv = _mm512_set1_ps(inv);
        for (int h = 0; h < 2; ++h) {
            __m512 y = _mm512_mul_ps(v[h], iv);
            if (!all_finite) {
                // Non-finite lanes: ±Inf -> ±127, NaN -> 0.
                const __mmask16 fin = _mm512_cmplt_epu32_mask(a[h], inf_bits);
                const __mmask16 inf = _mm512_cmpeq_epi32_mask(a[h], inf_bits);
                const __m512 special =
                    _mm512_castsi512_ps(_mm512_maskz_or_epi32(
                        inf, _mm512_andnot_si512(abs_mask,
                                                 _mm512_castps_si512(v[h])),
                        c127));
                y = _mm512_mask_blend_ps(fin, special, y);
            }
            // Round-to-nearest-even conversion — identical to the
            // scalar nearbyintf under the default rounding mode.
            const __m512i iq = _mm512_cvtps_epi32(y);
            // VPMOVSDB narrows lane-ordered — no repair permute needed.
            _mm_storeu_si128(reinterpret_cast<__m128i *>(q + lo + 16 * h),
                             _mm512_cvtsepi32_epi8(iq));
        }
    }
}

void
affineReluRowAvx512(const float *src, const float *a, const float *b,
                    std::int64_t k, bool relu, float *dst)
{
    const __m512 zero = _mm512_setzero_ps();
    std::int64_t j = 0;
    for (; j + 16 <= k; j += 16) {
        __m512 v = _mm512_fmadd_ps(_mm512_loadu_ps(a + j),
                                   _mm512_loadu_ps(src + j),
                                   _mm512_loadu_ps(b + j));
        if (relu)
            // max(v, +0): second operand returned for (-0, +0) ties,
            // matching the scalar v > 0 ? v : 0.
            v = _mm512_max_ps(v, zero);
        _mm512_storeu_ps(dst + j, v);
    }
    if (j < k) {
        const __mmask16 m = static_cast<__mmask16>((1u << (k - j)) - 1u);
        __m512 v = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + j),
                                   _mm512_maskz_loadu_ps(m, src + j),
                                   _mm512_maskz_loadu_ps(m, b + j));
        if (relu)
            v = _mm512_max_ps(v, zero);
        _mm512_mask_storeu_ps(dst + j, m, v);
    }
}

void
dequantizeRowAvx512(const std::int8_t *q, const float *scales,
                    std::int64_t k, float *dst)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const float s = scales[b];
        if (lo + 32 <= k) {
            const __m512 sv = _mm512_set1_ps(s);
            for (int h = 0; h < 2; ++h) {
                const __m128i q8 = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(q + lo + 16 * h));
                const __m512i q32 = _mm512_cvtepi8_epi32(q8);
                const __m512 f = _mm512_cvtepi32_ps(q32);
                _mm512_storeu_ps(dst + lo + 16 * h,
                                 _mm512_mul_ps(f, sv));
            }
        } else {
            for (std::int64_t jj = lo; jj < k; ++jj)
                dst[jj] = static_cast<float>(q[jj]) * s;
        }
    }
}

} // namespace leca::simd::detail

#endif // __AVX512F__ && __AVX512BW__
