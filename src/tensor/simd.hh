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
 * Determinism contract shared by every implementation of a slot:
 *
 *  - microF32: one non-fused multiply-then-add per element per k step,
 *    ascending k, one accumulator chain per output element. Every TU
 *    that implements or compares this math is compiled with
 *    -ffp-contract=off, so scalar, AVX2, AVX-512 and NEON variants are
 *    bit-identical (the policy trades the FMA peak for cross-ISA
 *    reproducibility; the throughput headline comes from int8).
 *  - dotQ8Row: integer group dots are exact in any evaluation order;
 *    the float combine is pinned to the lane structure documented at
 *    the declaration — one correctly-rounded fused multiply-add per
 *    block (fmaf / VFMADD / FMLA compute identical bits), so all
 *    variants are bit-identical.
 *  - quantizeRow/dequantizeRow: same absmax reduction (max is exact),
 *    same float divisions, same round-to-nearest-even conversion in
 *    every variant.
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
 * packed kMicroN-wide B panel (layouts produced by tensor/kernels.cc).
 * @p first selects zero-initialised accumulators vs. continuing each
 * element's chain from C; only the live mr×nr corner is stored.
 */
using MicroF32Fn = void (*)(std::int64_t kc, const float *ap,
                            const float *bp, float *c, std::int64_t ldc,
                            int mr, int nr, bool first);

/**
 * One row of the block-quantized GEMM: c[j] = dot(a, B row j) for
 * j in [0, n), where a and every B row are nb 32-element int8 blocks
 * with one fp32 scale per block (tails zero-padded, so padded lanes
 * contribute exactly 0).
 *
 * Pinned evaluation structure (identical in every variant):
 *   - per block b, eight exact int32 "group" dots over elements
 *     [4g, 4g+4) of the block (g = 0..7);
 *   - two banks of eight float accumulators; block b updates bank
 *     (b & 1), lane g, as acc = fma(sa[b]*sb[b], float(group[g]), acc)
 *     — always fused: FMA is correctly rounded, so std::fmaf, VFMADD
 *     and FMLA produce the same bits on every ISA (unlike separate
 *     mul+add this also halves the FP-port traffic per block);
 *   - final reduction v[g] = bank0[g] + bank1[g];
 *     t[g] = v[g] + v[g+4]; u[g] = t[g] + t[g+2]; result u[0] + u[1].
 * This is exactly the shape a 256-bit lane reduction produces, so the
 * scalar reference and the SIMD variants agree bit for bit.
 */
using DotQ8RowFn = void (*)(const std::int8_t *qa, const float *sa,
                            const std::int8_t *qb, const float *sb,
                            std::int64_t nb, std::int64_t n, float *c);

/**
 * dotQ8Row against a B matrix whose bytes were pre-biased by +128
 * (b XOR 0x80, i.e. reinterpreted as the unsigned operand VPDPBUSD
 * wants). Bit-identical results to DotQ8RowFn on the un-biased bytes —
 * it merely skips the per-(block, row) XOR, which matters because
 * the resident conv reuses every weight row across all patch rows and
 * caches the biased weights once per plan. Optional: only ISAs whose int8 kernel
 * needs an unsigned operand (VNNI) provide it; a null slot means
 * "no benefit here, use dotQ8Row".
 */
using DotQ8RowUBFn = void (*)(const std::int8_t *qa, const float *sa,
                              const std::uint8_t *qb_biased,
                              const float *sb, std::int64_t nb,
                              std::int64_t n, float *c);

/**
 * Quantize k floats into ceil(k/32) symmetric int8 blocks:
 * scale[b] = absmax/127, q = nearbyint(x * (127/absmax)) — never ±128,
 * which the AVX2 sign-trick kernel relies on. Tail lanes of the final
 * block are written as 0.
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
void dotQ8RowScalar(const std::int8_t *qa, const float *sa,
                    const std::int8_t *qb, const float *sb,
                    std::int64_t nb, std::int64_t n, float *c);
void quantizeRowScalar(const float *src, std::int64_t k, std::int8_t *q,
                       float *scales);
void dequantizeRowScalar(const std::int8_t *q, const float *scales,
                         std::int64_t k, float *dst);
void affineReluRowScalar(const float *src, const float *a, const float *b,
                         std::int64_t k, bool relu, float *dst);

// AVX2 (kernels_avx2.cc; VPMADDUBSW int8 path via the sign trick —
// quantization never emits -128, so pair sums stay below the s16
// saturation point).
void microF32Avx2(std::int64_t kc, const float *ap, const float *bp,
                  float *c, std::int64_t ldc, int mr, int nr, bool first);
void dotQ8RowAvx2(const std::int8_t *qa, const float *sa,
                  const std::int8_t *qb, const float *sb,
                  std::int64_t nb, std::int64_t n, float *c);
void quantizeRowAvx2(const float *src, std::int64_t k, std::int8_t *q,
                     float *scales);
void dequantizeRowAvx2(const std::int8_t *q, const float *scales,
                       std::int64_t k, float *dst);
void affineReluRowAvx2(const float *src, const float *a, const float *b,
                       std::int64_t k, bool relu, float *dst);

// AVX-512 F/BW/VL (kernels_avx512.cc). The int8 dot has no AVX-512
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

// AVX-512 VNNI (kernels_avx512vnni.cc): VPDPBUSD with the in-register
// +128 bias and per-group correction term.
void dotQ8RowVnni(const std::int8_t *qa, const float *sa,
                  const std::int8_t *qb, const float *sb,
                  std::int64_t nb, std::int64_t n, float *c);
void dotQ8RowUBVnni(const std::int8_t *qa, const float *sa,
                    const std::uint8_t *qb_biased, const float *sb,
                    std::int64_t nb, std::int64_t n, float *c);

// NEON / AArch64 (kernels_neon.cc): SDOT when the build targets the
// dotprod extension, widening SMULL/SMLAL pairwise sums otherwise.
void microF32Neon(std::int64_t kc, const float *ap, const float *bp,
                  float *c, std::int64_t ldc, int mr, int nr, bool first);
void dotQ8RowNeon(const std::int8_t *qa, const float *sa,
                  const std::int8_t *qb, const float *sb,
                  std::int64_t nb, std::int64_t n, float *c);
void affineReluRowNeon(const float *src, const float *a, const float *b,
                       std::int64_t k, bool relu, float *dst);

} // namespace detail

} // namespace simd

/**
 * One ISA's full kernel complement plus the static per-cycle peak
 * estimates bench/micro_ops.cc uses for its roofline row. The peaks
 * describe the non-fused mul+add policy (see file comment), not the
 * hardware FMA ceiling.
 */
struct KernelSet
{
    const char *name;              //!< "scalar" | "avx2" | "avx512" | "neon"
    Isa isa;
    simd::MicroF32Fn microF32;
    simd::DotQ8RowFn dotQ8Row;
    simd::QuantizeRowFn quantizeRow;
    simd::DequantizeRowFn dequantizeRow;
    double f32FlopsPerCycle;       //!< theoretical fp32 flops/cycle/core
    double i8MacsPerCycle;         //!< theoretical int8 MACs/cycle/core
    //! Pre-biased-B dot (see DotQ8RowUBFn); null when dotQ8Row is
    //! already optimal on raw signed bytes.
    simd::DotQ8RowUBFn dotQ8RowUB = nullptr;
    //! Resident-activation epilogue (see AffineReluRowFn); every
    //! compiled-in set provides one.
    simd::AffineReluRowFn affineReluRow = nullptr;
};

} // namespace leca

#endif // LECA_TENSOR_SIMD_HH
