/**
 * @file
 * NEON / AArch64 kernels (baseline AArch64 NEON is mandatory, so no
 * extra -m flags are needed; see simd.hh). Untested on x86 CI hosts —
 * the LECA_ISA=scalar CI job plus the bit-exactness suite cover it
 * wherever an arm64 runner builds.
 *
 * Only the resident epilogue has a NEON body. The fp32 micro-kernel and
 * the int8 panel slots run the scalar references (isa.cc), whose
 * correctly rounded fmaf chains compute the bits an FMLA body would; an
 * FMLA-tiled microF32 and an SDOT panel with output channels on the
 * lanes are not written yet.
 */

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

#include "tensor/simd.hh"

namespace leca::simd::detail {

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
