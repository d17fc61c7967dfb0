/**
 * @file
 * The packed, cache-blocked, register-tiled kernel core behind every
 * dense op in the simulator (DESIGN.md §8).
 *
 * One GEMM engine serves the three matrix-product flavours the stack
 * uses (C = A·B, Aᵀ·B, A·Bᵀ), and three conv passes (forward, dW, dX)
 * drive the same micro-kernel over the implicit im2col matrix: operand
 * layout differences are absorbed entirely by the packing routines, so
 * the register-tiled micro-kernel only ever sees contiguous
 * kMicroM×kMicroN panels.
 *
 * Structure per GEMM call:
 *   1. B is packed ONCE into kMicroN-wide column panels (zero-padded
 *      tails) by the calling thread.
 *   2. Row chunks of A/C are distributed over the deterministic pool
 *      (util/parallel.hh). Each worker packs its own kMicroM-tall A
 *      panels (k blocked by kBlockK) into thread-local arena scratch
 *      and drives the micro-kernel over the tile grid.
 *   3. The micro-kernel keeps a kMicroM×kMicroN (8×16) accumulator
 *      array in registers and issues one correctly rounded fused
 *      multiply-add per element per k step, so every output element
 *      accumulates its k contributions in ascending order with a single
 *      FMA chain (the microF32 contract, simd.hh).
 *
 * The conv passes instead pack their column-matrix operand one
 * cache-sized panel or block at a time, straight from a zero-padded
 * copy of the image, and consume it while it is still in cache.
 *
 * Determinism contract: the k loop is never split across accumulators
 * and the k-block boundaries are fixed constants, so each output
 * element's floating-point accumulation order is a pure function of
 * the operand shapes — independent of thread count and of how the
 * row chunks are scheduled. gemmBlocked is bit-identical to
 * gemmReference at every LECA_THREADS setting (tests/test_kernels.cc).
 *
 * All scratch (packed panels, padded planes, dcols tiles) comes from the
 * thread-local Arena (util/arena.hh): zero steady-state heap
 * allocations.
 */

#ifndef LECA_TENSOR_KERNELS_HH
#define LECA_TENSOR_KERNELS_HH

#include <cstdint>

namespace leca {

/**
 * Micro-tile rows: accumulator panel height held in registers — eight
 * independent FMA chains per lane, enough to cover the FMA latency on
 * two ports. Packed A panels are this tall; a tile with at most
 * kMicroM/2 live rows runs only the upper half of its panel.
 */
inline constexpr int kMicroM = 8;

/** Micro-tile columns: one or two SIMD vectors of floats. */
inline constexpr int kMicroN = 16;

/** k-dimension block: one packed A panel row fits in L1. */
inline constexpr int kBlockK = 256;

/** Cap on rows packed per worker chunk (A panel ≤ ~128 KiB in L2). */
inline constexpr int kBlockM = 128;

/**
 * C (m×n) = A·B with optional operand transposition and accumulation.
 *
 * @param a      left operand; logical element A(i,l) is
 *               a[i*lda + l] when !trans_a, a[l*lda + i] when trans_a
 * @param b      right operand; logical element B(l,j) is
 *               b[l*ldb + j] when !trans_b, b[j*ldb + l] when trans_b
 * @param c      m×n output, row stride @p ldc
 * @param accumulate  false: overwrite C; true: C += A·B, continuing
 *               each element's accumulation chain from the stored value
 *
 * Parallelised over row chunks through the deterministic pool; inside
 * an outer parallelFor (e.g. conv over batch items) it degrades to
 * serial like every nested region.
 */
void gemmBlocked(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float *a, std::int64_t lda, bool trans_a,
                 const float *b, std::int64_t ldb, bool trans_b,
                 float *c, std::int64_t ldc, bool accumulate);

/**
 * Retained naive reference: serial i-k-j GEMM with the same
 * per-element accumulation order (single chain, k ascending, one
 * std::fmaf per step) as gemmBlocked. Used by tests to pin
 * bit-exactness of the blocked kernel and by bench/micro_ops as the
 * pre-blocking baseline.
 */
void gemmReference(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float *a, std::int64_t lda, bool trans_a,
                   const float *b, std::int64_t ldb, bool trans_b,
                   float *c, std::int64_t ldc, bool accumulate);

/**
 * im2col on a raw [C,H,W] plane; dst is a (c*kh*kw) × (OH*OW)
 * row-major matrix (the layout im2col() exposes).
 */
void im2colRaw(const float *src, int c, int h, int w, int kh, int kw,
               int stride, int pad, float *dst);

/**
 * Adjoint of im2colRaw: fold a (channels*kh*kw) × (OH*OW) column
 * matrix back into a [channels,height,width] plane, ACCUMULATING into
 * @p dst (callers zero- or bias-initialise it).
 */
void col2imRaw(const float *cols, int channels, int height, int width,
               int kh, int kw, int stride, int pad, float *dst);

/**
 * Shape of one 2-D convolution over [cin, h, w] images with a
 * [cout, cin*kh*kw] row-major weight matrix. Its column matrix
 * cols(x) is the (cin*kh*kw) × (oh*ow) im2col of one image.
 */
struct ConvGeometry
{
    int cin, h, w; //!< input planes
    int cout;      //!< output channels (rows of the weight matrix)
    int kh, kw, stride, pad;

    int oh() const { return (h + 2 * pad - kh) / stride + 1; }
    int ow() const { return (w + 2 * pad - kw) / stride + 1; }
    std::int64_t
    kdim() const
    {
        return static_cast<std::int64_t>(cin) * kh * kw;
    }
    std::int64_t
    pixels() const
    {
        return static_cast<std::int64_t>(oh()) * ow();
    }
};

/*
 * The fp32 conv engine (DESIGN.md §8): three passes over n images on
 * one implicit-im2col layout. The forward and dW passes copy each
 * image once into a zero-padded plane, so column element (kk, p) is
 * the plain load plane[koff[kk] + poff[p]]; the dX pass folds into a
 * zero-padded accumulator. No column matrix is ever materialised.
 * Every output element keeps one k-ascending accumulation chain, so
 * each pass is bit-identical to im2colRaw + gemmReference (+ col2imRaw)
 * at every thread count and ISA. A batch runs its images in parallel;
 * a batch of one splits the loops inside its image instead, with a
 * grain that depends only on the shape. All scratch is arena memory.
 */

/**
 * Forward: y[i] = wmat · cols(x[i]), then + bias[co] per output row
 * when @p bias is non-null. @p x is [n, cin, h, w]; @p y is
 * [n, cout, oh, ow], overwritten.
 */
void convForward(const ConvGeometry &g, int n, const float *x,
                 const float *wmat, const float *bias, float *y);

/**
 * Weight gradient: per image i, dw[i] = dy[i] · cols(x[i])ᵀ, stored
 * [cout, kdim + (with_bias ? 1 : 0)] row-major at
 * dw + i·cout·(kdim + with_bias). With @p with_bias the trailing
 * column holds db[i] = dy[i] · 1. @p dy is [n, cout, oh, ow].
 */
void convBackwardWeights(const ConvGeometry &g, int n, const float *x,
                         const float *dy, bool with_bias, float *dw);

/**
 * Input gradient: dx[i] = col2im(wmatᵀ · dy[i]), computed and folded
 * one input-channel group at a time. @p dx is [n, cin, h, w],
 * overwritten.
 */
void convBackwardData(const ConvGeometry &g, int n, const float *dy,
                      const float *wmat, float *dx);

} // namespace leca

#endif // LECA_TENSOR_KERNELS_HH
