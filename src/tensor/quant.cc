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
 * Tap pointers of a window that lies inside the image: tap t is the
 * window's top-left pixel plus off_q[t] codes and off_s[t] scales.
 * No restrict qualifiers: GCC then keeps this loop scalar, which timed
 * faster for a nine-tap window than its vectorized form with the
 * remainder handling.
 */
inline void
windowTaps(const std::int8_t *q0, const float *s0, const std::int64_t *off_q,
           const std::int64_t *off_s, std::int64_t taps,
           const std::int8_t **rq, const float **rs)
{
    for (std::int64_t t = 0; t < taps; ++t) {
        rq[t] = q0 + off_q[t];
        rs[t] = s0 + off_s[t];
    }
}

/**
 * Pixels staged per tile by the NCHW<->pixel-major transposes below:
 * 64 pixels x 128 padded channels x 4 bytes = 32 KB worst case, still
 * L1/L2-resident while keeping every plane access a contiguous run.
 */
constexpr std::int64_t kTransposeTilePixels = 64;

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
    LECA_CHECK(!epi.hasSkip(),
               "quantizeActivationNchw: the entry takes no residual add");
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
convForwardResident(const QuantActivation &in, const ConvGeometry &g,
                    const QuantTensor &wq_hwc, const ResidentEpilogue &epi,
                    std::int8_t *out_q, float *out_s, float *out_rows,
                    float *out_planes)
{
    LECA_CHECK(g.cin == in.c && g.h == in.h && g.w == in.w
                   && g.cout == wq_hwc.rows,
               "convForwardResident: geometry ", g.cin, "x", g.h, "x", g.w,
               " -> ", g.cout, " vs input ", in.c, "x", in.h, "x", in.w,
               " and ", wq_hwc.rows, " weight rows");
    const int h = g.h, w = g.w;
    const int oh = g.oh(), ow = g.ow();
    LECA_CHECK(oh > 0 && ow > 0, "convForwardResident output ", oh, "x", ow,
               " for input ", h, "x", w, " kernel ", g.kh, "x", g.kw);
    const std::int64_t nbc = in.nbc();
    const std::int64_t cpad = nbc * kQuantBlock;
    const std::int64_t taps = static_cast<std::int64_t>(g.kh) * g.kw;
    const std::int64_t row_blocks = taps * nbc;
    LECA_CHECK(wq_hwc.cols == taps * cpad,
               "convForwardResident: weight cols ", wq_hwc.cols,
               " vs HWC patch length ", taps * cpad);
    const std::int64_t cout = g.cout;
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
    LECA_CHECK(epi.skipRows == nullptr || epi.skipCodes.empty(),
               "convForwardResident: at most one residual add");
    LECA_CHECK(epi.skipCodes.empty()
                   || (epi.skipCodes.c == cout
                       && epi.skipCodes.rows() == total),
               "convForwardResident: identity skip ", epi.skipCodes.c,
               " channels x ", epi.skipCodes.rows(), " rows vs output ",
               cout, " x ", total);

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
    const simd::DequantizeRowFn dequant = activeKernels().dequantizeRow;
    const simd::AffineReluRowFn affine = activeKernels().affineReluRow;
    const simd::Q8PackView wp = wq_hwc.pack.view();
    const bool skip = epi.hasSkip();
    // With a residual add the ReLU follows the add, so the affine runs
    // without it.
    const bool affine_relu = epi.relu && !skip;
    const QuantActivation &sc = epi.skipCodes;
    const std::int64_t sc_cpad = quantPadded(sc.c);
    const std::int64_t sc_nbc = sc.nbc();

    parallelFor(0, total, chunk, [&](std::int64_t p0, std::int64_t p1) {
        Arena::Scope scope;
        Arena &arena = Arena::local();
        // Tap pointers of one panel: row r's tap t (kernel position
        // ky·kw + kx) points at that input pixel's codes and scales in
        // the resident plane, or at the shared zero tap (codes 0,
        // scales 0) when it falls in the padding.
        const auto ntaps = static_cast<std::size_t>(kPanelRowsQ8 * taps);
        const std::int8_t **tq = arena.allocArray<const std::int8_t *>(ntaps);
        const float **ts = arena.allocArray<const float *>(ntaps);
        std::int8_t *zq =
            arena.allocArray<std::int8_t>(static_cast<std::size_t>(cpad));
        float *zs = arena.alloc(static_cast<std::size_t>(nbc));
        std::memset(zq, 0, static_cast<std::size_t>(cpad));
        std::memset(zs, 0, static_cast<std::size_t>(nbc) * sizeof(float));
        float *pc =
            arena.alloc(static_cast<std::size_t>(kPanelRowsQ8 * cout));
        float *sk_row =
            sc.empty() ? nullptr
                       : arena.alloc(static_cast<std::size_t>(cout));
        // Offsets of each tap's pixel from the window's top-left pixel,
        // in codes and in scales.
        std::int64_t *off_q = arena.allocArray<std::int64_t>(
            static_cast<std::size_t>(2 * taps));
        std::int64_t *off_s = off_q + taps;
        for (int ky = 0, t = 0; ky < g.kh; ++ky)
            for (int kx = 0; kx < g.kw; ++kx, ++t) {
                off_q[t] = (static_cast<std::int64_t>(ky) * w + kx) * cpad;
                off_s[t] = (static_cast<std::int64_t>(ky) * w + kx) * nbc;
            }
        // Output pixel (img, oy, ox) of patch row p, stepped one pixel
        // per row rather than divided out of p for every row.
        std::int64_t img = p0 / ohow;
        int oy = static_cast<int>((p0 - img * ohow) / ow);
        int ox = static_cast<int>((p0 - img * ohow) % ow);
        for (std::int64_t pp = p0; pp < p1; pp += kPanelRowsQ8) {
            const std::int64_t pe = std::min(p1, pp + kPanelRowsQ8);
            for (std::int64_t p = pp; p < pe; ++p) {
                const int y0 = oy * g.stride - g.pad;
                const int x0 = ox * g.stride - g.pad;
                const std::int8_t **rq = tq + (p - pp) * taps;
                const float **rs = ts + (p - pp) * taps;
                if (y0 >= 0 && y0 + g.kh <= h && x0 >= 0 && x0 + g.kw <= w) {
                    // The whole window is inside the image.
                    const std::int64_t src =
                        img * hw + static_cast<std::int64_t>(y0) * w + x0;
                    windowTaps(in.q + src * cpad, in.scales + src * nbc,
                               off_q, off_s, taps, rq, rs);
                } else {
                    for (int ky = 0, t = 0; ky < g.kh; ++ky) {
                        const int iy = y0 + ky;
                        for (int kx = 0; kx < g.kw; ++kx, ++t) {
                            const int ix = x0 + kx;
                            const bool inside =
                                iy >= 0 && iy < h && ix >= 0 && ix < w;
                            const std::int64_t src =
                                img * hw + static_cast<std::int64_t>(iy) * w
                                + ix;
                            rq[t] = inside ? in.q + src * cpad : zq;
                            rs[t] = inside ? in.scales + src * nbc : zs;
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
            panel(tq, ts, pe - pp, taps, wp, pc, cout);
            // Epilogue + exit while each output row is still panel-hot.
            for (std::int64_t p = pp; p < pe; ++p) {
                float *row = pc + (p - pp) * cout;
                if (epi.a != nullptr)
                    affine(row, epi.a, epi.b, cout, affine_relu, row);
                else if (affine_relu)
                    // Common-TU code, one compiled form — deterministic
                    // without routing through the kernel set.
                    for (std::int64_t ch = 0; ch < cout; ++ch)
                        row[ch] = row[ch] > 0.0f ? row[ch] : 0.0f;
                if (skip) {
                    // Residual add, then the ReLU: a projection row, or
                    // the exact value of the identity input row.
                    const float *sk = epi.skipRows + p * cout;
                    if (sk_row != nullptr) {
                        // leca-lint: precision-boundary
                        dequant(sc.q + p * sc_cpad, sc.scales + p * sc_nbc,
                                sc.c, sk_row);
                        sk = sk_row;
                    }
                    for (std::int64_t ch = 0; ch < cout; ++ch) {
                        const float v = row[ch] + sk[ch];
                        row[ch] = epi.relu ? (v > 0.0f ? v : 0.0f) : v;
                    }
                }
                if (out_q != nullptr) {
                    quantize_row(row, cout, out_q + p * onbc * kQuantBlock,
                                 out_s + p * onbc);
                } else if (out_rows != nullptr) {
                    std::memcpy(out_rows + p * cout, row,
                                static_cast<std::size_t>(cout)
                                    * sizeof(float));
                } else {
                    const std::int64_t pimg = p / ohow;
                    const std::int64_t rem = p - pimg * ohow;
                    float *base = out_planes + pimg * cout * ohow + rem;
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
        std::int8_t *qx = arena.allocArray<std::int8_t>(
            static_cast<std::size_t>(kPanelRowsQ8 * row_bytes));
        float *sx = arena.alloc(static_cast<std::size_t>(kPanelRowsQ8 * nb));
        // Each quantized input row is one tap of all nb blocks.
        const std::int8_t **tq =
            arena.allocArray<const std::int8_t *>(kPanelRowsQ8);
        const float **ts = arena.allocArray<const float *>(kPanelRowsQ8);
        for (std::int64_t r = 0; r < kPanelRowsQ8; ++r) {
            tq[r] = qx + r * row_bytes;
            ts[r] = sx + r * nb;
        }
        for (std::int64_t i = i0; i < i1; i += kPanelRowsQ8) {
            const std::int64_t rows = std::min(kPanelRowsQ8, i1 - i);
            for (std::int64_t r = 0; r < rows; ++r)
                quantize_row(x + (i + r) * in, in, qx + r * row_bytes,
                             sx + r * nb);
            float *yrow = y + i * out;
            panel(tq, ts, rows, 1, wp, yrow, out);
            if (bias)
                for (std::int64_t r = 0; r < rows; ++r)
                    for (std::int64_t j = 0; j < out; ++j)
                        yrow[r * out + j] += bias[j];
        }
    });
}

} // namespace leca
