#include "quant.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "tensor/isa.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

/**
 * Rows per panel of the int8 GEMM (resident conv patch rows, Linear
 * input rows): the panel's codes stay hot while the panel kernel
 * sweeps every channel group, and each weight byte the kernel loads
 * serves a whole tile of panel rows.
 */
constexpr std::int64_t kPanelRowsQ8 = 16;

/**
 * Patch-row chunk size for the resident conv: whole panels, and enough
 * MACs to amortise a pool dispatch (~512 KMAC). Depends only on the
 * problem shape, so the decomposition — and therefore every output
 * bit — is independent of LECA_THREADS.
 */
std::int64_t
chunkRowsQ8(std::int64_t n, std::int64_t nb)
{
    constexpr std::int64_t min_chunk_macs = 1 << 19;
    const std::int64_t macs_per_row =
        std::max<std::int64_t>(1, nb * kQuantBlock * n);
    const std::int64_t rows =
        (min_chunk_macs + macs_per_row - 1) / macs_per_row;
    return ((rows + kPanelRowsQ8 - 1) / kPanelRowsQ8) * kPanelRowsQ8;
}

/**
 * Copy a code span into the panel biased by +128 (code XOR 0x80), the
 * unsigned operand layout of the panel kernel. Every span is a whole
 * number of 32-code blocks. The panel gather issues a handful of
 * ~100-byte copies per patch; libc memcpy's call + size dispatch costs
 * more than the copy itself at that size, so this compiles to a short
 * chain of fixed-width vector loads, XORs and stores instead.
 */
inline void
biasCodeSpan(std::uint8_t *dst, const std::int8_t *src, std::int64_t bytes)
{
    for (std::int64_t i = 0; i < bytes; i += 32) {
        std::uint8_t t[32];
        std::memcpy(t, src + i, 32);
        for (int j = 0; j < 32; ++j)
            t[j] ^= 0x80u;
        std::memcpy(dst + i, t, 32);
    }
}

/**
 * Pixels staged per tile by the NCHW<->pixel-major transposes below:
 * 64 pixels x 128 padded channels x 4 bytes = 32 KB worst case, still
 * L1/L2-resident while keeping every plane access a contiguous run.
 */
constexpr std::int64_t kTransposeTilePixels = 64;

/** Inline copy of a short scale span (a few floats per patch row). */
inline void
copyScaleSpan(float *dst, const float *src, std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i)
        dst[i] = src[i];
}

} // namespace

QuantTensor
quantizeRowMajor(const Tensor &w, std::int64_t rows, std::int64_t cols)
{
    LECA_CHECK(rows > 0 && cols > 0
                   && static_cast<std::size_t>(rows * cols) == w.numel(),
               "quantizeRowMajor: view ", rows, "x", cols,
               " does not cover ", w.numel(), " elements");
    QuantTensor qt;
    qt.shape = w.shape();
    qt.rows = rows;
    qt.cols = cols;
    qt.nb = quantBlocks(cols);
    qt.q.resize(static_cast<std::size_t>(rows * qt.nb * kQuantBlock));
    qt.scales.resize(static_cast<std::size_t>(rows * qt.nb));
    quantizeRowsInto(w.data(), rows, cols, qt.q.data(), qt.scales.data());
    return qt;
}

Tensor
dequantizeRowMajor(const QuantTensor &qt)
{
    LECA_CHECK(!qt.empty(), "dequantizeRowMajor: empty QuantTensor");
    Tensor w(qt.shape);
    dequantizeRowsInto(qt, w.data());
    return w;
}

float
quantMaxAbsError(const Tensor &w, const QuantTensor &qt)
{
    LECA_CHECK(w.numel() == static_cast<std::size_t>(qt.rows * qt.cols),
               "quantMaxAbsError: shape mismatch");
    const Tensor r = dequantizeRowMajor(qt);
    const float *a = w.data();
    const float *b = r.data();
    float worst = 0.0f;
    for (std::size_t i = 0; i < w.numel(); ++i) {
        const float d = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
        worst = worst > d ? worst : d;
    }
    return worst;
}

// leca-analyze: entry
void
quantizeRowsInto(const float *src, std::int64_t m, std::int64_t cols,
                 std::int8_t *q, float *scales)
{
    const simd::QuantizeRowFn quantize_row = activeKernels().quantizeRow;
    const std::int64_t nb = quantBlocks(cols);
    for (std::int64_t i = 0; i < m; ++i)
        quantize_row(src + i * cols, cols, q + i * nb * kQuantBlock,
                 scales + i * nb);
}

// leca-analyze: entry
void
dequantizeRowsInto(const QuantTensor &qt, float *dst)
{
    const simd::DequantizeRowFn dequant = activeKernels().dequantizeRow;
    for (std::int64_t i = 0; i < qt.rows; ++i)
        dequant(qt.q.data() + i * qt.nb * kQuantBlock,
                qt.scales.data() + i * qt.nb, qt.cols, dst + i * qt.cols);
}

void
QuantTensor::buildPack()
{
    const std::int64_t groups = (rows + 15) / 16;
    pack.cout = rows;
    pack.nb = nb;
    pack.codes.assign(static_cast<std::size_t>(groups * nb * 512), 0);
    pack.scales.assign(static_cast<std::size_t>(groups * nb * 16), 0.0f);
    pack.comp.assign(static_cast<std::size_t>(groups * nb * 16), 0);
    for (std::int64_t co = 0; co < rows; ++co) {
        const std::int64_t g = co / 16;
        const std::int64_t l = co % 16;
        for (std::int64_t b = 0; b < nb; ++b) {
            const std::int8_t *src = q.data() + (co * nb + b) * kQuantBlock;
            std::int8_t *dst = pack.codes.data() + (g * nb + b) * 512 + l * 4;
            std::int32_t sum = 0;
            for (int s = 0; s < 8; ++s)
                for (int k = 0; k < 4; ++k) {
                    dst[s * 64 + k] = src[4 * s + k];
                    sum += src[4 * s + k];
                }
            const std::size_t lane =
                static_cast<std::size_t>((g * nb + b) * 16 + l);
            pack.scales[lane] = scales[static_cast<std::size_t>(co * nb + b)];
            pack.comp[lane] = -128 * sum;
        }
    }
}

QuantTensor
quantizeConvWeightsHwc(const QuantTensor &chw, int cin, int kh, int kw)
{
    const std::int64_t kdim = static_cast<std::int64_t>(cin) * kh * kw;
    LECA_CHECK(!chw.empty() && chw.cols == kdim,
               "quantizeConvWeightsHwc: weight ", chw.rows, "x", chw.cols,
               " vs patch length ", kdim);
    const std::int64_t cout = chw.rows;
    const std::int64_t cpad = quantPadded(cin);
    const std::int64_t cols = static_cast<std::int64_t>(kh) * kw * cpad;
    QuantTensor out;
    out.shape = chw.shape;
    out.rows = cout;
    out.cols = cols;
    out.nb = quantBlocks(cols);
    out.q.resize(static_cast<std::size_t>(cout * out.nb * kQuantBlock));
    out.scales.resize(static_cast<std::size_t>(cout * out.nb));
    // Derived from the CHW CODES so quantize() and loadQuantized()
    // agree bit for bit: dequantize each row (exact products q·s),
    // permute (ci, kpos) -> (kpos, ci) with zeroed pad lanes, and
    // requantize through the dispatched kernel. Cold path — runs once
    // per conv at plan time.
    const simd::DequantizeRowFn dequant = activeKernels().dequantizeRow;
    const simd::QuantizeRowFn quantize_row = activeKernels().quantizeRow;
    std::vector<float> row(static_cast<std::size_t>(chw.cols));
    std::vector<float> hwc(static_cast<std::size_t>(cols), 0.0f);
    for (std::int64_t co = 0; co < cout; ++co) {
        dequant(chw.q.data() + co * chw.nb * kQuantBlock,
                chw.scales.data() + co * chw.nb, chw.cols, row.data());
        for (int kpos = 0; kpos < kh * kw; ++kpos)
            for (int ci = 0; ci < cin; ++ci)
                hwc[static_cast<std::size_t>(kpos) * cpad + ci] =
                    row[static_cast<std::size_t>(ci) * kh * kw + kpos];
        quantize_row(hwc.data(), cols, out.q.data() + co * out.nb * kQuantBlock,
                     out.scales.data() + co * out.nb);
    }
    out.buildPack();
    return out;
}

// leca-analyze: entry
void
quantizeActivationNchw(const float *x, int n, int c, int h, int w,
                       std::int8_t *q, float *scales)
{
    quantizeActivationNchw(x, n, c, h, w, ResidentEpilogue{}, q, scales);
}

// leca-analyze: entry
void
quantizeActivationNchw(const float *x, int n, int c, int h, int w,
                       const ResidentEpilogue &epi, std::int8_t *q,
                       float *scales)
{
    LECA_CHECK(epi.a == nullptr || epi.b != nullptr,
               "quantizeActivationNchw: affine epilogue needs both a and b");
    const std::int64_t hw = static_cast<std::int64_t>(h) * w;
    const std::int64_t nbc = quantBlocks(c);
    const std::int64_t cpad = nbc * kQuantBlock;
    const std::int64_t total = static_cast<std::int64_t>(n) * hw;
    // Shape-only grain: enough pixels per chunk to amortise dispatch.
    const std::int64_t grain = std::max<std::int64_t>(
        16, (1 << 13) / std::max<std::int64_t>(1, c));
    const simd::QuantizeRowFn quantize_row = activeKernels().quantizeRow;
    const simd::AffineReluRowFn affine = activeKernels().affineReluRow;
    parallelFor(0, total, grain, [&](std::int64_t p0, std::int64_t p1) {
        Arena::Scope scope;
        // Blocked transpose: stage a run of pixels per channel with
        // CONTIGUOUS plane reads into an L1-resident tile, then
        // quantize pixel rows out of the tile. A per-pixel gather
        // would issue c strided loads per pixel across the whole
        // multi-MB plane set; this touches each plane sequentially.
        // Values and quantize_row calls are unchanged — bit-identical.
        float *tile = Arena::local().alloc(
            static_cast<std::size_t>(kTransposeTilePixels * c));
        for (std::int64_t t0 = p0; t0 < p1;) {
            const std::int64_t img = t0 / hw;
            const std::int64_t rem = t0 - img * hw;
            const std::int64_t tn = std::min(
                std::min(p1 - t0, kTransposeTilePixels), hw - rem);
            const float *src = x + img * c * hw + rem;
            for (int ch = 0; ch < c; ++ch) {
                const float *s = src + static_cast<std::int64_t>(ch) * hw;
                float *d = tile + ch;
                for (std::int64_t i = 0; i < tn; ++i)
                    d[i * c] = s[i];
            }
            for (std::int64_t i = 0; i < tn; ++i) {
                float *row = tile + i * c;
                // Tile rows are pixel-major, so the same dispatched
                // per-channel epilogue the resident conv uses applies
                // here unchanged (a == nullptr: relu-only or nothing).
                if (epi.a != nullptr)
                    affine(row, epi.a, epi.b, c, epi.relu, row);
                else if (epi.relu)
                    for (int ch = 0; ch < c; ++ch)
                        row[ch] = row[ch] > 0.0f ? row[ch] : 0.0f;
                quantize_row(row, c, q + (t0 + i) * cpad,
                             scales + (t0 + i) * nbc);
            }
            t0 += tn;
        }
    });
}

// leca-lint: precision-boundary
// leca-analyze: entry
void
dequantizeActivationNchw(const QuantActivation &act, float *dst)
{
    const int c = act.c;
    const std::int64_t hw = static_cast<std::int64_t>(act.h) * act.w;
    const std::int64_t nbc = act.nbc();
    const std::int64_t cpad = nbc * kQuantBlock;
    const std::int64_t total = act.rows();
    const std::int64_t grain = std::max<std::int64_t>(
        16, (1 << 13) / std::max<std::int64_t>(1, c));
    const simd::DequantizeRowFn dequant = activeKernels().dequantizeRow;
    const std::int8_t *q = act.q;
    const float *scales = act.scales;
    parallelFor(0, total, grain, [&](std::int64_t p0, std::int64_t p1) {
        Arena::Scope scope;
        // Mirror of quantizeActivationNchw's blocked transpose:
        // dequantize pixel rows into an L1 tile, then write each
        // channel's run back to its plane with contiguous stores.
        float *tile = Arena::local().alloc(
            static_cast<std::size_t>(kTransposeTilePixels * c));
        for (std::int64_t t0 = p0; t0 < p1;) {
            const std::int64_t img = t0 / hw;
            const std::int64_t rem = t0 - img * hw;
            const std::int64_t tn = std::min(
                std::min(p1 - t0, kTransposeTilePixels), hw - rem);
            for (std::int64_t i = 0; i < tn; ++i)
                dequant(q + (t0 + i) * cpad, scales + (t0 + i) * nbc, c,
                        tile + i * c);
            float *out = dst + img * c * hw + rem;
            for (int ch = 0; ch < c; ++ch) {
                float *o = out + static_cast<std::int64_t>(ch) * hw;
                const float *s = tile + ch;
                for (std::int64_t i = 0; i < tn; ++i)
                    o[i] = s[i * c];
            }
            t0 += tn;
        }
    });
}

// leca-analyze: entry
void
convForwardResident(const QuantActivation &in, int kh, int kw, int stride,
                    int pad, const QuantTensor &wq_hwc,
                    const ResidentEpilogue &epi, std::int8_t *out_q,
                    float *out_s, float *out_rows, float *out_planes)
{
    const int c = in.c, h = in.h, w = in.w;
    const int oh = (h + 2 * pad - kh) / stride + 1;
    const int ow = (w + 2 * pad - kw) / stride + 1;
    LECA_CHECK(oh > 0 && ow > 0, "convForwardResident output ", oh, "x", ow,
               " for input ", h, "x", w, " kernel ", kh, "x", kw);
    const std::int64_t nbc = quantBlocks(c);
    const std::int64_t cpad = nbc * kQuantBlock;
    const std::int64_t row_blocks = static_cast<std::int64_t>(kh) * kw * nbc;
    const std::int64_t row_bytes = row_blocks * kQuantBlock;
    LECA_CHECK(wq_hwc.cols == static_cast<std::int64_t>(kh) * kw * cpad,
               "convForwardResident: weight cols ", wq_hwc.cols,
               " vs HWC patch length ",
               static_cast<std::int64_t>(kh) * kw * cpad);
    const std::int64_t cout = wq_hwc.rows;
    const std::int64_t onbc = quantBlocks(cout);
    const std::int64_t hw = static_cast<std::int64_t>(h) * w;
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t total = static_cast<std::int64_t>(in.n) * ohow;
    LECA_CHECK((out_q != nullptr) + (out_rows != nullptr)
                       + (out_planes != nullptr)
                   == 1,
               "convForwardResident: exactly one exit must be given");
    LECA_CHECK(out_q == nullptr || out_s != nullptr,
               "convForwardResident: quantized exit needs scale storage");
    LECA_CHECK(epi.a == nullptr || epi.b != nullptr,
               "convForwardResident: affine epilogue needs both a and b");

    LECA_CHECK(!wq_hwc.pack.empty() && wq_hwc.pack.nb == row_blocks,
               "convForwardResident: weights carry no panel pack for ",
               row_blocks, " blocks");

    // Panel chunks in whole multiples of kPanelRowsQ8, sized from the
    // shape alone. Pure partition of independent outputs: each output
    // is one pinned-order chain, so neither the chunking nor the
    // thread count can change a bit of the result.
    const std::int64_t chunk = chunkRowsQ8(cout, row_blocks);

    // Kernel snapshot before the parallel region, like every hot path.
    const simd::DotQ8PanelFn panel = activeKernels().dotQ8Panel;
    const simd::QuantizeRowFn quantize_row = activeKernels().quantizeRow;
    const simd::AffineReluRowFn affine = activeKernels().affineReluRow;
    const simd::Q8PackView wp = wq_hwc.pack.view();

    parallelFor(0, total, chunk, [&](std::int64_t p0, std::int64_t p1) {
        Arena::Scope scope;
        Arena &arena = Arena::local();
        std::uint8_t *pq = static_cast<std::uint8_t *>(arena.allocBytes(
            static_cast<std::size_t>(kPanelRowsQ8 * row_bytes)));
        float *ps = arena.alloc(
            static_cast<std::size_t>(kPanelRowsQ8 * row_blocks));
        float *pc =
            arena.alloc(static_cast<std::size_t>(kPanelRowsQ8 * cout));
        // Output pixel (img, oy, ox) of patch row p, stepped one pixel
        // per row rather than divided out of p for every row.
        std::int64_t img = p0 / ohow;
        int oy = static_cast<int>((p0 - img * ohow) / ow);
        int ox = static_cast<int>((p0 - img * ohow) % ow);
        for (std::int64_t pp = p0; pp < p1; pp += kPanelRowsQ8) {
            const std::int64_t pe = std::min(p1, pp + kPanelRowsQ8);
            // Gather: each patch row is kh·kw span copies of codes and
            // scales straight from the resident input — the gather IS
            // the panel packing; nothing touches fp32 here.
            for (std::int64_t p = pp; p < pe; ++p) {
                const int y0 = oy * stride - pad;
                const int x0 = ox * stride - pad;
                std::uint8_t *dq = pq + (p - pp) * row_bytes;
                float *ds = ps + (p - pp) * row_blocks;
                for (int ky = 0; ky < kh; ++ky) {
                    const int iy = y0 + ky;
                    const bool row_ok = iy >= 0 && iy < h;
                    if (row_ok && x0 >= 0 && x0 + kw <= w) {
                        // Interior kernel row: the kw pixels are
                        // contiguous in pixel-major layout, so codes
                        // and scales each collapse to one span copy —
                        // same bytes as the per-pixel walk below.
                        const std::int64_t src =
                            img * hw
                            + static_cast<std::int64_t>(iy) * w + x0;
                        biasCodeSpan(
                            dq + static_cast<std::int64_t>(ky) * kw * cpad,
                            in.q + src * cpad, kw * cpad);
                        copyScaleSpan(
                            ds + static_cast<std::int64_t>(ky) * kw * nbc,
                            in.scales + src * nbc, kw * nbc);
                        continue;
                    }
                    for (int kx = 0; kx < kw; ++kx) {
                        const int kpos = ky * kw + kx;
                        std::uint8_t *q_dst = dq + kpos * cpad;
                        float *s_dst = ds + kpos * nbc;
                        const int ix = x0 + kx;
                        if (row_ok && ix >= 0 && ix < w) {
                            const std::int64_t src = img * hw + iy * w + ix;
                            biasCodeSpan(q_dst, in.q + src * cpad, cpad);
                            copyScaleSpan(s_dst, in.scales + src * nbc,
                                          nbc);
                        } else {
                            // Zero padding: biased code 0 is 0x80.
                            std::memset(q_dst, 0x80,
                                        static_cast<std::size_t>(cpad));
                            std::memset(s_dst, 0,
                                        static_cast<std::size_t>(nbc)
                                            * sizeof(float));
                        }
                    }
                }
                if (++ox == ow) {
                    ox = 0;
                    if (++oy == oh) {
                        oy = 0;
                        ++img;
                    }
                }
            }
            panel(pq, ps, pe - pp, wp, pc, cout);
            // Epilogue + exit while each output row is still panel-hot.
            for (std::int64_t p = pp; p < pe; ++p) {
                float *row = pc + (p - pp) * cout;
                if (epi.a != nullptr)
                    affine(row, epi.a, epi.b, cout, epi.relu, row);
                else if (epi.relu)
                    // Common-TU code, one compiled form — deterministic
                    // without routing through the kernel set.
                    for (std::int64_t ch = 0; ch < cout; ++ch)
                        row[ch] = row[ch] > 0.0f ? row[ch] : 0.0f;
                if (out_q != nullptr) {
                    quantize_row(row, cout, out_q + p * onbc * kQuantBlock,
                                 out_s + p * onbc);
                } else if (out_rows != nullptr) {
                    std::memcpy(out_rows + p * cout, row,
                                static_cast<std::size_t>(cout)
                                    * sizeof(float));
                } else {
                    const std::int64_t img = p / ohow;
                    const std::int64_t rem = p - img * ohow;
                    float *base = out_planes + img * cout * ohow + rem;
                    for (std::int64_t co = 0; co < cout; ++co)
                        base[co * ohow] = row[co];
                }
            }
        }
    });
}

// The pass-through global pool mirrors ops.cc's globalAvgPool exactly
// (ascending pixels, then one multiply by 1/(h·w)) and every summand is
// the exact fp32 product q·s, so it is bit-identical to running the
// fp32 pool on dequantizeActivationNchw's output (DESIGN.md §13).

// leca-analyze: entry
void
globalAvgPoolResident(const QuantActivation &act, float *out)
{
    const int c = act.c;
    const std::int64_t hw = static_cast<std::int64_t>(act.h) * act.w;
    const std::int64_t nbc = act.nbc();
    const std::int64_t cpad = nbc * kQuantBlock;
    const float inv = 1.0f / static_cast<float>(hw);
    const simd::DequantizeRowFn dequant = activeKernels().dequantizeRow;
    parallelFor(0, act.n, 1, [&](std::int64_t i0, std::int64_t i1) {
        Arena::Scope scope;
        Arena &arena = Arena::local();
        float *rowbuf = arena.alloc(static_cast<std::size_t>(c));
        float *acc = arena.alloc(static_cast<std::size_t>(c));
        for (std::int64_t i = i0; i < i1; ++i) {
            for (int ch = 0; ch < c; ++ch)
                acc[ch] = 0.0f;
            for (std::int64_t p = 0; p < hw; ++p) {
                dequant(act.q + (i * hw + p) * cpad,
                        act.scales + (i * hw + p) * nbc, c, rowbuf);
                for (int ch = 0; ch < c; ++ch)
                    acc[ch] += rowbuf[ch];
            }
            for (int ch = 0; ch < c; ++ch)
                out[i * c + ch] = acc[ch] * inv;
        }
    });
}

// leca-analyze: entry
void
linearForwardQuant(const float *x, std::int64_t m, const QuantTensor &wq,
                   const float *bias, float *y)
{
    LECA_CHECK(!wq.pack.empty(),
               "linearForwardQuant: weights carry no panel pack (plan the "
               "layer after quantizing or restoring it)");
    const std::int64_t in = wq.cols;
    const std::int64_t out = wq.rows;
    const std::int64_t nb = wq.nb;
    const simd::QuantizeRowFn quantize_row = activeKernels().quantizeRow;
    const simd::DotQ8PanelFn panel = activeKernels().dotQ8Panel;
    const simd::Q8PackView wp = wq.pack.view();
    parallelFor(0, m, kPanelRowsQ8, [&](std::int64_t i0, std::int64_t i1) {
        Arena::Scope scope;
        Arena &arena = Arena::local();
        const std::int64_t row_bytes = nb * kQuantBlock;
        std::int8_t *qx = static_cast<std::int8_t *>(arena.allocBytes(
            static_cast<std::size_t>(kPanelRowsQ8 * row_bytes)));
        float *sx = arena.alloc(static_cast<std::size_t>(kPanelRowsQ8 * nb));
        std::uint8_t *px = reinterpret_cast<std::uint8_t *>(qx);
        for (std::int64_t i = i0; i < i1; i += kPanelRowsQ8) {
            const std::int64_t rows = std::min(kPanelRowsQ8, i1 - i);
            for (std::int64_t r = 0; r < rows; ++r)
                quantize_row(x + (i + r) * in, in, qx + r * row_bytes,
                             sx + r * nb);
            biasCodeSpan(px, qx, rows * row_bytes);
            float *yrow = y + i * out;
            panel(px, sx, rows, wp, yrow, out);
            if (bias)
                for (std::int64_t r = 0; r < rows; ++r)
                    for (std::int64_t j = 0; j < out; ++j)
                        yrow[r * out + j] += bias[j];
        }
    });
}

} // namespace leca
