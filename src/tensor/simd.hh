/**
 * @file
 * The per-ISA kernel ABI behind the runtime dispatch layer (DESIGN.md
 * §12).
 *
 * Each ISA variant lives in its own translation unit
 * (kernels_scalar.cc, kernels_avx2.cc, kernels_avx512.cc,
 * kernels_avx512vnni.cc, kernels_neon.cc) compiled with that ISA's
 * target flags, and exports plain C-style function pointers collected
 * into a KernelSet by tensor/isa.cc. This header is deliberately
 * freestanding — only <cstdint> — because everything it declares is
 * included from TUs built with instruction-set flags the rest of the
 * binary must never inherit (an AVX-512 instruction inlined into
 * common code would fault on an AVX2-only host).
 *
 * Determinism contract shared by every implementation of a slot. Both
 * float-combining slots follow one rule: each output is one chain of
 * correctly rounded fused multiply-adds (std::fmaf, VFMADD and FMLA
 * compute identical bits) in a fixed ascending order, so every variant
 * is bit-identical and no output depends on how its work is tiled.
 * Every TU is compiled with -ffp-contract=off, so the only fused
 * operations are these explicit ones.
 *
 *  - microF32: one fused multiply-add per element per k step,
 *    ascending k, one chain per output element, starting from +0 or
 *    from the stored C.
 *  - dotQ8Panel: every block dot is an exact int32 sum; the float
 *    combine is one fused multiply-add per block, in ascending block
 *    order.
 *  - quantizeRow/dequantizeRow: same absmax reduction over the finite
 *    lanes (max is exact), same float divisions, same round-to-
 *    nearest-even conversion and the same non-finite policy in every
 *    variant.
 */

#ifndef LECA_TENSOR_SIMD_HH
#define LECA_TENSOR_SIMD_HH

#include <cstdint>

namespace leca {

/** Instruction-set family a KernelSet was compiled for. */
enum class Isa { Scalar, Avx2, Avx512, Neon };

namespace simd {

/**
 * fp32 micro-kernel over one packed kMicroM-tall A panel and one
 * packed kMicroN-wide B panel (layouts produced by tensor/kernels.cc):
 * for kk = 0 .. kc-1, acc[r][l] = fma(ap[kk·kMicroM + r],
 * bp[kk·kMicroN + l], acc[r][l]). @p first selects accumulators that
 * start from +0 vs. continuing each element's chain from C; only the
 * live mr×nr corner is stored. When mr ≤ kMicroM/2 a variant may run
 * only the upper half of the panel's rows.
 */
using MicroF32Fn = void (*)(std::int64_t kc, const float *ap,
                            const float *bp, float *c, std::int64_t ldc,
                            int mr, int nr, bool first);

/**
 * Read-only view of the weight pack the int8 panel kernel consumes
 * (built once per layer at plan time by tensor/quant.cc, never
 * serialized). Output channels are grouped sixteen to a group; the
 * last group is padded with zero codes, scales and compensation.
 *
 *   codes  [group][block][step 0..7][16 ch][4 k] int8: step s of block
 *          b holds elements [4s, 4s+4) of the block for each channel —
 *          one VPDPBUSD operand, or two 8-channel AVX2 halves;
 *   scales [group][block][16] fp32: the (channel, block) weight scale;
 *   comp   [group][block][16] int32: −128 · Σ codes of that (channel,
 *          block), which turns Σ (a + 128)·w into Σ a·w for a body
 *          that biases the activation codes into an unsigned operand.
 */
struct Q8PackView
{
    const std::int8_t *codes;
    const float *scales;
    const std::int32_t *comp;
    std::int64_t nb;   //!< 32-element blocks along the reduction axis
    std::int64_t cout; //!< live output channels
};

/**
 * One panel of the block-quantized GEMM with output channels on the
 * vector lanes: c[r·ldc + co] for r < rows and co < w.cout. The panel
 * rows are read in place through tap pointers: panel row r is `taps`
 * spans of nbt = w.nb / taps blocks each, and tap t's 32-code blocks
 * start at q[r·taps + t] and its nbt scales at s[r·taps + t]. Row
 * block b is block b mod nbt of tap b / nbt. A resident conv's tap is
 * one input pixel's channel vector (DESIGN.md §13); a Linear row is one
 * tap of all w.nb blocks. Codes are signed, as quantizeRow writes them;
 * a body that needs another operand form (VPDPBUSD's unsigned one)
 * converts them in registers. A tap of zero codes with scale 0 is a
 * zero-padding pixel.
 *
 * Pinned evaluation structure (identical in every variant): each
 * output is one float chain from +0,
 *     for b = 0 .. nb-1:
 *         acc = fma(sa[r][b] · sw[co][b], float(d[b]), acc)
 * where d[b] is the exact int32 dot Σ a·w over block b (|d| < 2^24, so
 * float(d) is exact) and sa·sw is one rounded product. FMA is
 * correctly rounded, so std::fmaf, VFMADD and FMLA produce the same
 * bits on every ISA, and since nothing couples two outputs, results do
 * not depend on the panel height, the tiling, the tap split or the
 * thread count.
 */
using DotQ8PanelFn = void (*)(const std::int8_t *const *q,
                              const float *const *s, std::int64_t rows,
                              std::int64_t taps, const Q8PackView &w,
                              float *c, std::int64_t ldc);

/**
 * Quantize k floats into ceil(k/32) symmetric int8 blocks. absmax is
 * taken over the block's finite lanes; scale[b] = absmax/127 and
 * q = nearbyint(x * (127/absmax)). Non-finite lanes never touch their
 * block's finite lanes: NaN codes 0 and ±Inf codes ±127. A block whose
 * finite absmax is below 127/FLT_MAX (all-zero, denormal or tiny) gets
 * scale 0 and finite codes 0. No code is ever −128, which the AVX2
 * sign-trick kernel relies on. Tail lanes of the final block are
 * written as 0.
 */
using QuantizeRowFn = void (*)(const float *src, std::int64_t k,
                               std::int8_t *q, float *scales);

/** Inverse of QuantizeRowFn: dst[j] = q[j] * scale[j/32], j < k. */
using DequantizeRowFn = void (*)(const std::int8_t *q,
                                 const float *scales, std::int64_t k,
                                 float *dst);

/**
 * Per-channel affine epilogue of the resident int8 path (DESIGN.md
 * §13): dst[j] = fma(a[j], src[j], b[j]), clamped to [0, inf) when
 * @p relu — the folded eval-mode BatchNorm (+ conv bias) and ReLU a
 * resident conv applies to each pixel row before re-quantizing it.
 * dst may alias src. Pinned structure shared by every variant: one
 * correctly-rounded FMA per element (fmaf / VFMADD / FMLA are
 * bit-identical) followed by max(v, +0.0f), so all ISAs agree bit for
 * bit — including v = -0.0f, which every variant maps to +0.0f.
 */
using AffineReluRowFn = void (*)(const float *src, const float *a,
                                 const float *b, std::int64_t k,
                                 bool relu, float *dst);

namespace detail {

// Scalar reference implementations (kernels_scalar.cc) — always
// compiled, and the bit-exactness baseline every other variant is
// pinned against in tests/test_quant.cc.
void microF32Scalar(std::int64_t kc, const float *ap, const float *bp,
                    float *c, std::int64_t ldc, int mr, int nr,
                    bool first);
void dotQ8PanelScalar(const std::int8_t *const *q, const float *const *s,
                      std::int64_t rows, std::int64_t taps,
                      const Q8PackView &w, float *c, std::int64_t ldc);
void quantizeRowScalar(const float *src, std::int64_t k, std::int8_t *q,
                       float *scales);
void dequantizeRowScalar(const std::int8_t *q, const float *scales,
                         std::int64_t k, float *dst);
void affineReluRowScalar(const float *src, const float *a, const float *b,
                         std::int64_t k, bool relu, float *dst);

// AVX2 (kernels_avx2.cc; VPMADDUBSW int8 panel via the sign trick —
// quantization never emits -128, so pair sums stay below the s16
// saturation point).
void microF32Avx2(std::int64_t kc, const float *ap, const float *bp,
                  float *c, std::int64_t ldc, int mr, int nr, bool first);
void dotQ8PanelAvx2(const std::int8_t *const *q, const float *const *s,
                    std::int64_t rows, std::int64_t taps,
                    const Q8PackView &w, float *c, std::int64_t ldc);
void quantizeRowAvx2(const float *src, std::int64_t k, std::int8_t *q,
                     float *scales);
void dequantizeRowAvx2(const std::int8_t *q, const float *scales,
                       std::int64_t k, float *dst);
void affineReluRowAvx2(const float *src, const float *a, const float *b,
                       std::int64_t k, bool relu, float *dst);

// AVX-512 F/BW/VL (kernels_avx512.cc). The int8 panel has no AVX-512
// implementation without VNNI — isa.cc falls back to the AVX2 one.
void microF32Avx512(std::int64_t kc, const float *ap, const float *bp,
                    float *c, std::int64_t ldc, int mr, int nr,
                    bool first);
void quantizeRowAvx512(const float *src, std::int64_t k, std::int8_t *q,
                       float *scales);
void dequantizeRowAvx512(const std::int8_t *q, const float *scales,
                         std::int64_t k, float *dst);
void affineReluRowAvx512(const float *src, const float *a, const float *b,
                         std::int64_t k, bool relu, float *dst);

// AVX-512 VNNI (kernels_avx512vnni.cc): VPDPBUSD over the activations
// biased in registers, accumulators seeded with the pack's compensation.
void dotQ8PanelVnni(const std::int8_t *const *q, const float *const *s,
                    std::int64_t rows, std::int64_t taps,
                    const Q8PackView &w, float *c, std::int64_t ldc);

// NEON / AArch64 (kernels_neon.cc); its microF32 and int8 panel slots
// run the scalar references.
void affineReluRowNeon(const float *src, const float *a, const float *b,
                       std::int64_t k, bool relu, float *dst);

} // namespace detail

} // namespace simd

/**
 * One ISA's full kernel complement plus the static per-cycle peak
 * estimates bench/micro_ops.cc uses for its roofline row. The fp32
 * peak is the FMA ceiling: two flops per lane per fused multiply-add.
 */
struct KernelSet
{
    const char *name;              //!< "scalar" | "avx2" | "avx512" | "neon"
    Isa isa;
    simd::MicroF32Fn microF32;
    simd::DotQ8PanelFn dotQ8Panel;
    simd::QuantizeRowFn quantizeRow;
    simd::DequantizeRowFn dequantizeRow;
    double f32FlopsPerCycle;       //!< theoretical fp32 flops/cycle/core
    double i8MacsPerCycle;         //!< theoretical int8 MACs/cycle/core
    //! Resident-activation epilogue (see AffineReluRowFn); every
    //! compiled-in set provides one.
    simd::AffineReluRowFn affineReluRow = nullptr;
};

} // namespace leca

#endif // LECA_TENSOR_SIMD_HH
