/**
 * @file
 * Scalar reference kernels: the bit-exactness baseline every SIMD
 * variant is pinned against (DESIGN.md §12). Every fused operation here
 * is an explicit correctly rounded fma, which the AVX2/AVX-512/NEON
 * variants reproduce exactly with VFMADD/FMLA.
 *
 * The fp32 micro-kernel keeps its accumulators in the GCC vector
 * extension, which pins the SIMD axis to the packed-B lane dimension:
 * fmaLanes applies __builtin_fmaf lane by lane, which GCC emits as one
 * vector FMA per row when the build targets FMA hardware and as a
 * libm fmaf call per lane otherwise — the same bits either way.
 */

#include <cfloat>
#include <cmath>
#include <cstring>

#include "tensor/kernels.hh"
#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

constexpr int MR = kMicroM;
constexpr int NR = kMicroN;

#if defined(__GNUC__) || defined(__clang__)
typedef float VecN __attribute__((vector_size(NR * sizeof(float))));

/** fma(a, b[l], c[l]) in every lane. */
inline VecN
fmaLanes(float a, VecN b, VecN c)
{
    for (int l = 0; l < NR; ++l)
        c[l] = __builtin_fmaf(a, b[l], c[l]);
    return c;
}
#else
struct VecN { // Portable fallback: plain per-lane arithmetic.
    float v[NR];
    float &operator[](int l) { return v[l]; }
};

inline VecN
fmaLanes(float a, VecN b, VecN c)
{
    for (int l = 0; l < NR; ++l)
        c[l] = std::fmaf(a, b[l], c[l]);
    return c;
}
#endif

/** The first R rows of the panel (R = MR, or MR/2 for short tiles). */
template <int R>
inline void
microTile(std::int64_t kc, const float *ap, const float *bp, float *c,
          std::int64_t ldc, int mr, int nr, bool first)
{
    VecN acc[R];
    for (int r = 0; r < R; ++r)
        for (int l = 0; l < NR; ++l)
            acc[r][l] = (!first && r < mr && l < nr) ? c[r * ldc + l] : 0.0f;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float *arow = ap + kk * MR;
        VecN bv;
        std::memcpy(&bv, bp + kk * NR, sizeof(bv));
        // Unrolled, so the accumulators stay in registers.
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
            acc[r] = fmaLanes(arow[r], bv, acc[r]);
    }
    for (int r = 0; r < mr; ++r)
        for (int l = 0; l < nr; ++l)
            c[r * ldc + l] = acc[r][l];
}

} // namespace

void
microF32Scalar(std::int64_t kc, const float *ap, const float *bp, float *c,
               std::int64_t ldc, int mr, int nr, bool first)
{
    if (mr <= MR / 2)
        microTile<MR / 2>(kc, ap, bp, c, ldc, mr, nr, first);
    else
        microTile<MR>(kc, ap, bp, c, ldc, mr, nr, first);
}

void
dotQ8PanelScalar(const std::int8_t *const *q, const float *const *s,
                 std::int64_t rows, std::int64_t taps, const Q8PackView &w,
                 float *c, std::int64_t ldc)
{
    const std::int64_t nb = w.nb;
    const std::int64_t nbt = nb / taps;
    for (std::int64_t g = 0; g * 16 < w.cout; ++g) {
        const std::int64_t co0 = g * 16;
        const int live = static_cast<int>(w.cout - co0 < 16 ? w.cout - co0
                                                            : 16);
        // The output rows are the accumulators: one chain per output,
        // blocks in ascending order (the pinned DotQ8PanelFn fold).
        for (std::int64_t r = 0; r < rows; ++r)
            for (int l = 0; l < live; ++l)
                c[r * ldc + co0 + l] = 0.0f;
        for (std::int64_t b = 0; b < nb; ++b) {
            const std::int8_t *wp = w.codes + (g * nb + b) * 512;
            const float *sw = w.scales + (g * nb + b) * 16;
            // Channel-major copy of the block: wt[l] is channel l's 32
            // codes in element order.
            std::int8_t wt[16][32];
            for (int st = 0; st < 8; ++st)
                for (int l = 0; l < 16; ++l)
                    for (int k = 0; k < 4; ++k)
                        wt[l][4 * st + k] = wp[st * 64 + l * 4 + k];
            const std::int64_t t = b / nbt;
            const std::int64_t j = b - t * nbt;
            for (std::int64_t r = 0; r < rows; ++r) {
                // The dot is Σ s8·s8 over the signed codes. Do not
                // rewrite it over biased codes as ((int)u8 - 128)·s8:
                // GCC 12 at -O3 with AVX-512 VNNI vectorises that form
                // into VPDPBUSD and returns wrong sums.
                const std::int8_t *as = q[r * taps + t] + j * 32;
                const float sar = s[r * taps + t][j];
                float *crow = c + r * ldc + co0;
                for (int l = 0; l < live; ++l) {
                    std::int32_t d = 0;
                    for (int k = 0; k < 32; ++k)
                        d += static_cast<std::int32_t>(as[k])
                             * static_cast<std::int32_t>(wt[l][k]);
                    // Fused by contract (simd.hh): fmaf is correctly
                    // rounded, matching the SIMD variants' VFMADD.
                    crow[l] = std::fmaf(sar * sw[l], static_cast<float>(d),
                                        crow[l]);
                }
            }
        }
    }
}

void
quantizeRowScalar(const float *src, std::int64_t k, std::int8_t *q,
                  float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const std::int64_t hi = lo + 32 < k ? lo + 32 : k;
        float amax = 0.0f;
        for (std::int64_t j = lo; j < hi; ++j) {
            const float a = std::fabs(src[j]);
            if (a <= FLT_MAX) // finite lanes only; NaN compares false
                amax = amax > a ? amax : a;
        }
        // 127/amax rounds to at most 127*(1+2^-23), so |x|*inv never
        // reaches 127.5: the nearest-even conversion stays in ±127 and
        // no clamp is needed (or performed) in any variant. Below
        // 127/FLT_MAX the inverse would overflow, so such a block (and
        // an all-zero one) gets scale 0 and finite codes 0.
        const bool normal = amax >= 127.0f / FLT_MAX;
        const float inv = normal ? 127.0f / amax : 0.0f;
        scales[b] = normal ? amax / 127.0f : 0.0f;
        std::int64_t j = lo;
        for (; j < hi; ++j) {
            const float x = src[j];
            std::int32_t code = 0; // NaN
            if (std::fabs(x) <= FLT_MAX)
                code = static_cast<std::int32_t>(std::nearbyintf(x * inv));
            else if (x == x)
                code = x > 0.0f ? 127 : -127;
            q[j] = static_cast<std::int8_t>(code);
        }
        for (; j < lo + 32; ++j)
            q[j] = 0;
    }
}

void
affineReluRowScalar(const float *src, const float *a, const float *b,
                    std::int64_t k, bool relu, float *dst)
{
    if (relu) {
        for (std::int64_t j = 0; j < k; ++j) {
            // Fused by contract (simd.hh); max(v, +0) maps -0 to +0
            // like the SIMD variants' VMAXPS/FMAX against +0.
            const float v = std::fmaf(a[j], src[j], b[j]);
            dst[j] = v > 0.0f ? v : 0.0f;
        }
    } else {
        for (std::int64_t j = 0; j < k; ++j)
            dst[j] = std::fmaf(a[j], src[j], b[j]);
    }
}

void
dequantizeRowScalar(const std::int8_t *q, const float *scales,
                    std::int64_t k, float *dst)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const std::int64_t hi = lo + 32 < k ? lo + 32 : k;
        const float s = scales[b];
        for (std::int64_t j = lo; j < hi; ++j)
            dst[j] = static_cast<float>(q[j]) * s;
    }
}

} // namespace leca::simd::detail
