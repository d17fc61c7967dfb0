/**
 * @file
 * Block-quantized int8 tensors and the quantized inference kernels
 * (DESIGN.md §12).
 *
 * Format: ggml-style symmetric quantization in 32-element blocks along
 * the innermost (reduction) dimension. Each block stores 32 int8 codes
 * plus one fp32 scale = amax/127; codes are produced with
 * round-to-nearest-even and never reach ±128 (see simd.hh). Rows are
 * padded to a whole number of blocks with zero codes, so kernels never
 * need a tail path and padded lanes contribute exactly 0 to any dot.
 *
 * A QuantTensor always quantizes a logically 2-D [rows, cols] view of
 * a weight tensor where cols is the reduction extent of the consuming
 * GEMM (Linear: [out, in]; Conv/Encoder: [cout, cin*kh*kw]) — per-row
 * blocking then matches the dot direction exactly.
 *
 * Determinism: quantization and the int8 dots both route through the
 * dispatched KernelSet (tensor/isa.hh), every variant of which is
 * bit-identical to the scalar reference, and the resident conv's work
 * decomposition depends only on the problem shape — so quantized
 * inference is bit-identical across LECA_THREADS, batch split, and ISA.
 */

#ifndef LECA_TENSOR_QUANT_HH
#define LECA_TENSOR_QUANT_HH

#include <cstdint>
#include <vector>

#include "tensor/kernels.hh"
#include "tensor/simd.hh"
#include "tensor/tensor.hh"

namespace leca {

/** Elements per quantization block (one fp32 scale each). */
inline constexpr std::int64_t kQuantBlock = 32;

/** Blocks needed to cover @p k elements. */
inline constexpr std::int64_t
quantBlocks(std::int64_t k)
{
    return (k + kQuantBlock - 1) / kQuantBlock;
}

/**
 * The int8 panel kernel's weight layout (simd::Q8PackView, DESIGN.md
 * §12): output channels in groups of sixteen, each block's codes as
 * eight [16 ch × 4 k] steps, the scales as [group][block][16], and the
 * −128·Σw compensation per (channel, block). A derived cache, never
 * serialized; one pack serves every KernelSet.
 */
struct QuantPack
{
    std::int64_t cout = 0;            //!< live output channels
    std::int64_t nb = 0;              //!< blocks along the reduction axis
    std::vector<std::int8_t> codes;   //!< groups × nb × 512
    std::vector<float> scales;        //!< groups × nb × 16
    std::vector<std::int32_t> comp;   //!< groups × nb × 16

    bool empty() const { return cout == 0; }

    simd::Q8PackView view() const
    {
        return {codes.data(), scales.data(), comp.data(), nb, cout};
    }
};

/**
 * A weight tensor quantized to int8 blocks. Plain owning container —
 * the kernels below do the math. `shape` preserves the original
 * logical shape (e.g. [cout, cin, kh, kw]) for checkpoint round-trips;
 * rows/cols describe the 2-D quantization view.
 */
struct QuantTensor
{
    std::vector<int> shape;      //!< original fp32 logical shape
    std::int64_t rows = 0;       //!< quantization view rows
    std::int64_t cols = 0;       //!< reduction extent (pre-padding)
    std::int64_t nb = 0;         //!< blocks per row = quantBlocks(cols)
    std::vector<std::int8_t> q;  //!< codes, rows × nb × 32, row-major
    std::vector<float> scales;   //!< scales, rows × nb, row-major
    /**
     * The codes and scales re-laid for the int8 panel kernel, rows as
     * output channels. Built by buildPack() at plan time for the
     * tensors the int8 GEMM reads (a Linear's weights, a resident
     * conv's HWC weights); empty otherwise. Any rewrite of the codes
     * replaces the whole QuantTensor, so a pack is never stale.
     */
    QuantPack pack;

    bool empty() const { return rows == 0; }

    /** (Re)build pack from q and scales. */
    void buildPack();

    /** Bytes held by the quantized representation. */
    std::size_t quantBytes() const
    {
        return q.size() * sizeof(std::int8_t)
               + scales.size() * sizeof(float);
    }

    /** Bytes the fp32 original occupies. */
    std::size_t fp32Bytes() const
    {
        return static_cast<std::size_t>(rows) * cols * sizeof(float);
    }
};

// ---- Cold path (setup / validation; allocates) ----------------------

/**
 * Quantize @p w viewed as [rows, cols] row-major (rows*cols must equal
 * w.numel()). Used once per layer by Pipeline::quantize().
 */
QuantTensor quantizeRowMajor(const Tensor &w, std::int64_t rows,
                             std::int64_t cols);

/** Reconstruct the fp32 tensor (original shape) from @p qt. */
Tensor dequantizeRowMajor(const QuantTensor &qt);

/** max |w - dequant(quant(w))| over the tensor — per-layer error stat. */
float quantMaxAbsError(const Tensor &w, const QuantTensor &qt);

// ---- Hot path (serving; arena scratch only, no allocations) ---------

/**
 * Quantize @p m rows of @p src (row-major, stride @p cols) into
 * caller-provided code/scale storage laid out like QuantTensor rows.
 * Routed through the dispatched quantizeRow kernel.
 */
void quantizeRowsInto(const float *src, std::int64_t m, std::int64_t cols,
                      std::int8_t *q, float *scales);

/**
 * Dequantize every row of @p qt into @p dst (rows × cols floats,
 * row-major) through the dispatched dequantizeRow kernel: each value
 * is the exact product q·s, the same floats dequantizeRowMajor holds.
 */
void dequantizeRowsInto(const QuantTensor &qt, float *dst);

/**
 * Quantized linear forward: y (m×out) = quant(x) · Wqᵀ + bias for
 * row-major x (m × in), Wq rows = out, cols = in; @p wq must carry its
 * pack. Activations are quantized per row into an arena panel inside
 * the parallel region and run through the dispatched dotQ8Panel.
 */
void linearForwardQuant(const float *x, std::int64_t m, const QuantTensor &wq,
                        const float *bias, float *y);

// ---- Resident activations (DESIGN.md §13) ---------------------------
//
// A feature map kept in int8 codes BETWEEN layers: pixel-major layout
// ([n·h·w] rows of one channel vector each, padded to whole blocks), so
// a consuming conv's im2col patch is kh·kw already-quantized pixel rows
// — the int8 panel reads them in place through one tap pointer each,
// nothing is copied and nothing is re-quantized. The producing layer
// quantizes each pixel row exactly once on exit (requantize-once
// semantics).

/** Channel extent padded to whole quantization blocks. */
inline constexpr std::int64_t
quantPadded(std::int64_t c)
{
    return quantBlocks(c) * kQuantBlock;
}

/**
 * Non-owning view of a resident block-quantized activation feature map
 * (NCHW logically, pixel-major physically). Row p = pixel
 * (img, y, x) with p = img·h·w + y·w + x holds the quantized channel
 * vector: quantBlocks(c) 32-code blocks at q + p·quantPadded(c) and
 * their scales at scales + p·quantBlocks(c). Buffers are arena- or
 * caller-owned; the view carries no lifetime.
 */
struct QuantActivation
{
    int n = 0, c = 0, h = 0, w = 0;  //!< logical NCHW shape
    std::int8_t *q = nullptr;        //!< codes, (n·h·w) × quantPadded(c)
    float *scales = nullptr;         //!< scales, (n·h·w) × quantBlocks(c)

    std::int64_t rows() const
    {
        return static_cast<std::int64_t>(n) * h * w;
    }
    std::int64_t nbc() const { return quantBlocks(c); }
    bool empty() const { return q == nullptr; }
};

/**
 * Re-lay a conv weight QuantTensor (rows = cout, cols = cin·kh·kw in
 * CHW patch order) into the resident path's HWC patch order: rows =
 * cout, cols = kh·kw·quantPadded(cin), column (kpos, ci) holding the
 * weight for patch position kpos and input channel ci, zero in the
 * padded lanes. Every 32-block then spans exactly one patch position
 * and one 32-channel group — the alignment that lets a patch read in
 * place, one tap per input pixel, dot against it block for block.
 *
 * Derived from the CHW CODES (dequantize, permute, requantize), not
 * from the fp32 weights, so quantize() and loadQuantized() produce
 * identical resident inference.
 */
QuantTensor quantizeConvWeightsHwc(const QuantTensor &chw, int cin, int kh,
                                   int kw);

/**
 * Precision-boundary entry: quantize an fp32 NCHW tensor into a
 * pixel-major resident activation (each pixel's channel vector
 * gathered across planes, then block-quantized once). Caller provides
 * code/scale storage sized like QuantActivation.
 */
void quantizeActivationNchw(const float *x, int n, int c, int h, int w,
                            std::int8_t *q, float *scales);

/**
 * Precision-boundary exit: reconstruct fp32 NCHW planes from a
 * resident activation. @p dst holds n·c·h·w floats.
 */
// leca-lint: precision-boundary
void dequantizeActivationNchw(const QuantActivation &act, float *dst);

/**
 * Per-channel epilogue a resident conv applies to each output pixel
 * row while it is still in registers/L1, before the row leaves the
 * panel: y = a[ch]·x + b[ch] (folded eval-mode BatchNorm and/or conv
 * bias), then an optional residual add, then an optional ReLU. a ==
 * nullptr means no affine (then b is ignored); relu may be set either
 * way.
 *
 * The residual add (a ResidualBlock's exit, DESIGN.md §13) is at most
 * one of: @c skipRows, fp32 pixel-major rows of cout floats (a
 * projection's out_rows exit), row p added to output row p; or
 * @c skipCodes, a resident activation of cout channels and one row per
 * output pixel (the identity skip), whose row p is added as its exact
 * dequantized value.
 */
struct ResidentEpilogue
{
    const float *a = nullptr;
    const float *b = nullptr;
    bool relu = false;
    const float *skipRows = nullptr;
    QuantActivation skipCodes{};

    bool hasSkip() const { return skipRows != nullptr || !skipCodes.empty(); }
};

/**
 * Fused precision-boundary entry: apply a per-channel epilogue (folded
 * eval-mode BatchNorm affine and/or ReLU) to an fp32 NCHW tensor WHILE
 * quantizing it into a pixel-major resident activation. The affine and
 * relu run on the L1-resident transpose tile, so a Plain producer
 * followed by BN/ReLU and a resident consumer costs one pass over the
 * planes instead of three (plus two tensor materialisations). With an
 * empty epilogue this is exactly quantizeActivationNchw.
 */
void quantizeActivationNchw(const float *x, int n, int c, int h, int w,
                            const ResidentEpilogue &epi, std::int8_t *q,
                            float *scales);

/**
 * The resident quantized conv (DESIGN.md §13) of geometry @p g over the
 * resident input @p in (g.cin, g.h, g.w must match it): every patch row
 * is read in place — the panel takes one tap pointer per kernel
 * position into the input's codes and scales, and a position in the
 * padding points at one shared zero tap (codes 0, scale 0), so no code
 * or scale is copied and nothing touches fp32. The dispatched dotQ8Panel
 * runs each 16-row panel against the pack of @p wq_hwc (g.cout rows),
 * then the epilogue and ONE of three exits per output pixel row while
 * it is still panel-hot:
 *
 *   - out_q/out_s: quantize once into a resident activation
 *     (rows = n·oh·ow, channel extent = g.cout);
 *   - out_rows:    fp32 pixel-major rows (n·oh·ow × cout), for fused
 *     consumers like the residual projection;
 *   - out_planes:  fp32 NCHW planes (precision-boundary exit).
 *
 * Work decomposition depends only on the problem shape and every
 * output element is one pinned-order chain + per-element epilogue, so
 * results are bit-identical across LECA_THREADS, batch composition and
 * ISA variants.
 */
void convForwardResident(const QuantActivation &in, const ConvGeometry &g,
                         const QuantTensor &wq_hwc,
                         const ResidentEpilogue &epi, std::int8_t *out_q,
                         float *out_s, float *out_rows, float *out_planes);

/**
 * Global average pooling straight over resident codes (the
 * "pass-through" pool): each summand is dequantized on the fly as the
 * exact fp32 product q·s, so the result is bit-identical to pooling the
 * dequantized tensor — pooling over codes adds NO quantization error
 * (DESIGN.md §13). The output is fp32 [n, c] rows: pooling mixes pixels
 * with different scales, so it is a precision boundary by construction.
 */
void globalAvgPoolResident(const QuantActivation &act, float *out);

} // namespace leca

#endif // LECA_TENSOR_QUANT_HH
