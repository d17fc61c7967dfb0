/**
 * @file
 * NEON / AArch64 kernels, compiled with -ffp-contract=off (baseline
 * AArch64 NEON is mandatory, so no extra -m flags are needed; see
 * simd.hh). Untested on x86 CI hosts — the LECA_ISA=scalar CI job plus
 * the bit-exactness suite cover it wherever an arm64 runner builds.
 *
 * fp32: four 4-lane accumulator vectors per micro-tile row with
 * explicit vmulq/vaddq (never fused — -ffp-contract=off keeps the
 * compiler from forming FMLA). Edge tiles delegate to the scalar
 * micro-kernel, which computes identical per-lane chains.
 *
 * int8: the panel slot runs the scalar reference (isa.cc); an SDOT
 * body with output channels on the lanes is not written yet.
 */

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

#include "tensor/simd.hh"

namespace leca::simd::detail {

void
microF32Neon(std::int64_t kc, const float *ap, const float *bp, float *c,
             std::int64_t ldc, int mr, int nr, bool first)
{
    if (mr != 4 || nr != 16) {
        // Edge tiles: identical per-lane chains, scalar code path.
        microF32Scalar(kc, ap, bp, c, ldc, mr, nr, first);
        return;
    }
    float32x4_t acc[4][4];
    for (int r = 0; r < 4; ++r)
        for (int h = 0; h < 4; ++h)
            acc[r][h] = first ? vdupq_n_f32(0.0f)
                              : vld1q_f32(c + r * ldc + 4 * h);
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        float32x4_t b[4];
        for (int h = 0; h < 4; ++h)
            b[h] = vld1q_f32(bp + kk * 16 + 4 * h);
        const float *arow = ap + kk * 4;
        for (int r = 0; r < 4; ++r) {
            const float32x4_t av = vdupq_n_f32(arow[r]);
            for (int h = 0; h < 4; ++h)
                acc[r][h] = vaddq_f32(acc[r][h], vmulq_f32(av, b[h]));
        }
    }
    for (int r = 0; r < 4; ++r)
        for (int h = 0; h < 4; ++h)
            vst1q_f32(c + r * ldc + 4 * h, acc[r][h]);
}

void
affineReluRowNeon(const float *src, const float *a, const float *b,
                  std::int64_t k, bool relu, float *dst)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    std::int64_t j = 0;
    for (; j + 4 <= k; j += 4) {
        // FMLA is correctly rounded like fmaf — the pinned contract.
        float32x4_t v =
            vfmaq_f32(vld1q_f32(b + j), vld1q_f32(a + j), vld1q_f32(src + j));
        if (relu)
            // FMAX(-0, +0) = +0, matching the scalar v > 0 ? v : 0.
            v = vmaxq_f32(v, zero);
        vst1q_f32(dst + j, v);
    }
    for (; j < k; ++j) {
        const float v = std::fmaf(a[j], src[j], b[j]);
        dst[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
    }
}

} // namespace leca::simd::detail

#endif // __aarch64__
