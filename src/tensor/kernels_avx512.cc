/**
 * @file
 * AVX-512 (F/BW/VL) kernels. Compiled with -mavx512f -mavx512bw
 * -mavx512vl -ffp-contract=off; nothing here may be inlined elsewhere
 * (see simd.hh).
 *
 * fp32: one 16-lane accumulator vector per micro-tile row — the whole
 * kMicroN extent in a single register — with explicit VMULPS+VADDPS
 * and masked C loads/stores, so edge tiles share the main path.
 *
 * There is no AVX-512 int8 dot without VNNI (VPSIGNB does not exist in
 * EVEX form); isa.cc pairs this set's microF32 with the VNNI dot when
 * the host has it and the AVX2 dot otherwise.
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

#include "tensor/simd.hh"

namespace leca::simd::detail {

void
microF32Avx512(std::int64_t kc, const float *ap, const float *bp, float *c,
               std::int64_t ldc, int mr, int nr, bool first)
{
    const __mmask16 m =
        nr >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << nr) - 1u);
    __m512 acc[4];
    for (int r = 0; r < 4; ++r)
        acc[r] = (!first && r < mr) ? _mm512_maskz_loadu_ps(m, c + r * ldc)
                                    : _mm512_setzero_ps();
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_loadu_ps(bp + kk * 16);
        const float *arow = ap + kk * 4;
        for (int r = 0; r < 4; ++r) {
            const __m512 av = _mm512_set1_ps(arow[r]);
            acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b));
        }
    }
    for (int r = 0; r < mr; ++r)
        _mm512_mask_storeu_ps(c + r * ldc, m, acc[r]);
}

void
quantizeRowAvx512(const float *src, std::int64_t k, std::int8_t *q,
                  float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        if (lo + 32 <= k) {
            const __m512 v0 = _mm512_loadu_ps(src + lo);
            const __m512 v1 = _mm512_loadu_ps(src + lo + 16);
            const __m512 mx =
                _mm512_max_ps(_mm512_abs_ps(v0), _mm512_abs_ps(v1));
            const float amax = _mm512_reduce_max_ps(mx);
            const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
            scales[b] = amax / 127.0f;
            const __m512 iv = _mm512_set1_ps(inv);
            const __m512i i0 =
                _mm512_cvtps_epi32(_mm512_mul_ps(v0, iv));
            const __m512i i1 =
                _mm512_cvtps_epi32(_mm512_mul_ps(v1, iv));
            // VPMOVSDB narrows lane-ordered — no repair permute needed.
            _mm_storeu_si128(reinterpret_cast<__m128i *>(q + lo),
                             _mm512_cvtsepi32_epi8(i0));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(q + lo + 16),
                             _mm512_cvtsepi32_epi8(i1));
        } else {
            float amax = 0.0f;
            for (std::int64_t jj = lo; jj < k; ++jj) {
                float a = src[jj] < 0.0f ? -src[jj] : src[jj];
                amax = amax > a ? amax : a;
            }
            const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
            scales[b] = amax / 127.0f;
            std::int64_t jj = lo;
            for (; jj < k; ++jj) {
                const __m128 x = _mm_mul_ss(_mm_set_ss(src[jj]),
                                            _mm_set_ss(inv));
                q[jj] = static_cast<std::int8_t>(_mm_cvtss_si32(x));
            }
            for (; jj < lo + 32; ++jj)
                q[jj] = 0;
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
