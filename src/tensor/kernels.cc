#include "kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/isa.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

constexpr int MR = kMicroM;
constexpr int NR = kMicroN;

std::int64_t
roundUp(std::int64_t v, std::int64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

/**
 * Units per chunk when a loop is split over the pool: enough work to
 * amortise a pool dispatch (~32 Kflop), aiming for ~16 chunks on big
 * loops. Depends only on the problem shape — never on the thread
 * count — so the work decomposition is reproducible (DESIGN.md §7).
 */
std::int64_t
chunkUnits(std::int64_t count, std::int64_t flops_per_unit)
{
    constexpr std::int64_t min_chunk_flops = 1 << 15;
    const std::int64_t by_work =
        (min_chunk_flops + flops_per_unit - 1)
        / std::max<std::int64_t>(1, flops_per_unit);
    return std::max<std::int64_t>({1, by_work, (count + 15) / 16});
}

/**
 * Rows per GEMM chunk: chunkUnits' rule in whole MR panels, with the
 * ~16-chunk target capped by kBlockM so a packed A chunk stays
 * cache-resident.
 */
std::int64_t
chunkRows(std::int64_t m, std::int64_t n, std::int64_t k)
{
    const std::int64_t capped = std::min<std::int64_t>(m, 16 * kBlockM);
    return roundUp(std::max<std::int64_t>(MR, chunkUnits(capped, 2 * k * n)),
                   MR);
}

/**
 * Pack all k×n of B into kMicroN-wide column panels. Panel p holds
 * columns [p*NR, p*NR + NR); element (kk, lane) sits at
 * bp[p*k*NR + kk*NR + lane]; lanes past n are zero-filled so the
 * micro-kernel never needs a column tail path.
 */
void
packB(const float *b, std::int64_t ldb, bool trans, std::int64_t k,
      std::int64_t n, float *bp)
{
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
        const int nr = static_cast<int>(std::min<std::int64_t>(NR, n - j0));
        float *panel = bp + (j0 / NR) * k * NR;
        if (!trans) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float *srow = b + kk * ldb + j0;
                float *drow = panel + kk * NR;
                for (int l = 0; l < nr; ++l)
                    drow[l] = srow[l];
                for (int l = nr; l < NR; ++l)
                    drow[l] = 0.0f;
            }
        } else {
            // B stored n×k: column j of the logical B is row j0+l of
            // the storage, read sequentially per lane.
            for (int l = 0; l < nr; ++l) {
                const float *scol = b + (j0 + l) * ldb;
                for (std::int64_t kk = 0; kk < k; ++kk)
                    panel[kk * NR + l] = scol[kk];
            }
            for (int l = nr; l < NR; ++l)
                for (std::int64_t kk = 0; kk < k; ++kk)
                    panel[kk * NR + l] = 0.0f;
        }
    }
}

/**
 * Pack rows [i0, i1) × k-slice [k0, k0+kc) of A into kMicroM-tall
 * panels: panel q holds rows i0+q*MR ..; element (r, kk) sits at
 * ap[q*kc*MR + kk*MR + r]; rows past i1 are zero-filled.
 */
void
packA(const float *a, std::int64_t lda, bool trans, std::int64_t i0,
      std::int64_t i1, std::int64_t k0, std::int64_t kc, float *ap)
{
    for (std::int64_t ii = i0; ii < i1; ii += MR) {
        const int mr = static_cast<int>(std::min<std::int64_t>(MR, i1 - ii));
        float *panel = ap + ((ii - i0) / MR) * kc * MR;
        if (!trans) {
            for (int r = 0; r < mr; ++r) {
                const float *srow = a + (ii + r) * lda + k0;
                for (std::int64_t kk = 0; kk < kc; ++kk)
                    panel[kk * MR + r] = srow[kk];
            }
        } else {
            // A stored k×m: logical element (i, kk) is a[kk*lda + i].
            for (std::int64_t kk = 0; kk < kc; ++kk) {
                const float *srow = a + (k0 + kk) * lda + ii;
                for (int r = 0; r < mr; ++r)
                    panel[kk * MR + r] = srow[r];
            }
        }
        if (mr < MR)
            for (std::int64_t kk = 0; kk < kc; ++kk)
                for (int r = mr; r < MR; ++r)
                    panel[kk * MR + r] = 0.0f;
    }
}

/**
 * The shared engine: rows of C distributed over the pool, k blocked by
 * kBlockK, B already packed (shared, read-only; the pool's task
 * publication orders the pack before any worker read).
 *
 * The micro-kernel comes from the runtime-dispatched KernelSet
 * (tensor/isa.hh); the pointer is snapshotted once here, before the
 * parallel region, so one GEMM can never tear across two ISA variants
 * even under a test-scoped override. All variants compute identical
 * per-lane accumulation chains (simd.hh), so the dispatch choice never
 * changes the result.
 */
void
gemmWithPackedB(std::int64_t m, std::int64_t n, std::int64_t k,
                const float *a, std::int64_t lda, bool trans_a,
                const float *bp, float *c, std::int64_t ldc,
                bool accumulate)
{
    const simd::MicroF32Fn micro = activeKernels().microF32;
    const std::int64_t grain = chunkRows(m, n, k);
    parallelFor(0, m, grain,
                [&](std::int64_t i0, std::int64_t i1) {
        Arena::Scope scope;
        const std::int64_t kc_max = std::min<std::int64_t>(k, kBlockK);
        // Sized by the grain, not this chunk's rows: chunks are claimed
        // dynamically, so every chunk must make the same arena demand
        // or a worker warmed on the short tail chunk would have to grow
        // (i.e. heap-allocate) when it later claims a full one.
        float *ap = Arena::local().alloc(static_cast<std::size_t>(
            roundUp(std::min(grain, m), MR) * kc_max));
        for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
            const std::int64_t kc = std::min<std::int64_t>(kBlockK, k - k0);
            packA(a, lda, trans_a, i0, i1, k0, kc, ap);
            const bool first = k0 == 0 && !accumulate;
            for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
                const int nr =
                    static_cast<int>(std::min<std::int64_t>(NR, n - j0));
                const float *bpp = bp + (j0 / NR) * k * NR + k0 * NR;
                for (std::int64_t ii = i0; ii < i1; ii += MR) {
                    const int mr = static_cast<int>(
                        std::min<std::int64_t>(MR, i1 - ii));
                    micro(kc, ap + ((ii - i0) / MR) * kc * MR, bpp,
                          c + ii * ldc + j0, ldc, mr, nr, first);
                }
            }
        }
    });
}

/** Zero the m×n extent of C (the k == 0, no-accumulate edge). */
void
zeroC(std::int64_t m, std::int64_t n, float *c, std::int64_t ldc)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
}

/**
 * [lo, hi) range of output positions o for which i = o*stride + k - pad
 * lands inside [0, extent). Hoists the per-element bounds test out of
 * the im2col/col2im inner loops: only the clipped edge segments differ,
 * and for the common interior the loop body is branch-free.
 */
inline void
validRange(int extent, int count, int stride, int pad, int k, int &lo,
           int &hi)
{
    const int a = pad - k;
    lo = a > 0 ? (a + stride - 1) / stride : 0;
    const int b = extent - 1 + pad - k;
    hi = b >= 0 ? std::min(count - 1, b / stride) + 1 : 0;
    lo = std::min(lo, count);
    if (hi < lo)
        hi = lo;
}

/**
 * Where one image's implicit column matrix lives: element (kk, p) of
 * cols(x) is plane[koff[kk] + poff[p]], with plane the image
 * zero-padded by g.pad on every side — or the image itself when
 * g.pad == 0 (planeFloats == 0).
 */
struct Im2colIndex
{
    const std::int32_t *koff; //!< g.kdim() entries: (ch, ky, kx) offsets
    const std::int32_t *poff; //!< g.pixels() entries: (oy, ox) offsets
    std::int64_t planeFloats; //!< padded plane size, 0 when unpadded
    int hp, wp;               //!< padded plane extents
};

/**
 * The window must fit the padded image: then every (oy, ox, ky, kx)
 * lands inside the padded plane. (oh() truncates toward zero, so a
 * strided window larger than the image would still give oh() == 1.)
 */
void
checkGeometry(const ConvGeometry &g)
{
    LECA_CHECK(g.cin > 0 && g.cout > 0 && g.h > 0 && g.w > 0 && g.kh > 0
                   && g.kw > 0 && g.stride > 0 && g.pad >= 0
                   && g.h + 2 * g.pad >= g.kh && g.w + 2 * g.pad >= g.kw,
               "conv geometry ", g.cin, "x", g.h, "x", g.w, " -> ", g.cout,
               " kernel ", g.kh, "x", g.kw, " stride ", g.stride, " pad ",
               g.pad, ": the kernel must fit the padded input");
}

/** Offsets of g's column matrix; arrays live in the caller's scope. */
Im2colIndex
makeIm2colIndex(const ConvGeometry &g)
{
    Im2colIndex ix;
    ix.hp = g.h + 2 * g.pad;
    ix.wp = g.w + 2 * g.pad;
    const std::int64_t plane =
        static_cast<std::int64_t>(g.cin) * ix.hp * ix.wp;
    LECA_CHECK(plane <= std::numeric_limits<std::int32_t>::max(),
               "conv plane of ", plane, " floats exceeds 32-bit offsets");
    ix.planeFloats = g.pad > 0 ? plane : 0;
    std::int32_t *koff =
        Arena::local().allocArray<std::int32_t>(
            static_cast<std::size_t>(g.kdim()));
    std::int32_t *poff =
        Arena::local().allocArray<std::int32_t>(
            static_cast<std::size_t>(g.pixels()));
    std::int32_t *kp = koff;
    for (int ch = 0; ch < g.cin; ++ch)
        for (int ky = 0; ky < g.kh; ++ky)
            for (int kx = 0; kx < g.kw; ++kx)
                *kp++ = (ch * ix.hp + ky) * ix.wp + kx;
    std::int32_t *pp = poff;
    const int oh = g.oh(), ow = g.ow();
    for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
            *pp++ = oy * g.stride * ix.wp + ox * g.stride;
    ix.koff = koff;
    ix.poff = poff;
    return ix;
}

/**
 * The plane @p ix indexes for one [cin, h, w] image: the image itself
 * when unpadded, else its zero-padded copy, written to @p scratch
 * (ix.planeFloats floats of the caller's arena scope).
 */
const float *
paddedPlane(const ConvGeometry &g, const Im2colIndex &ix,
            const float *image, float *scratch)
{
    if (ix.planeFloats == 0)
        return image;
    float *plane = scratch;
    for (int ch = 0; ch < g.cin; ++ch)
        for (int y = 0; y < ix.hp; ++y) {
            float *row = plane + (static_cast<std::size_t>(ch) * ix.hp + y)
                                     * ix.wp;
            const int iy = y - g.pad;
            if (iy < 0 || iy >= g.h) {
                std::fill(row, row + ix.wp, 0.0f);
                continue;
            }
            const float *src =
                image + (static_cast<std::size_t>(ch) * g.h + iy) * g.w;
            std::fill(row, row + g.pad, 0.0f);
            std::copy(src, src + g.w, row + g.pad);
            std::fill(row + g.pad + g.w, row + ix.wp, 0.0f);
        }
    return plane;
}

/** Live extent of the tile at @p at along an axis of @p n: <= @p unit. */
int
tileExtent(std::int64_t n, std::int64_t at, int unit)
{
    return static_cast<int>(std::min<std::int64_t>(unit, n - at));
}

/**
 * Run body(i) for every image. A batch runs its images in parallel, so
 * the loops inside each image run serially as nested regions do; a
 * batch of one runs on the caller, so its inner loops spread instead.
 */
template <typename Body>
void
forEachImage(int n, const Body &body)
{
    if (n == 1) {
        body(0);
        return;
    }
    parallelFor(0, n, 1, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
            body(i);
    });
}

/**
 * Pack rows [k0, k0 + kc) of the panel of cols(plane) holding pixels
 * [p0, p0 + nr) into the packB layout: bp[kk*NR + lane], dead lanes
 * zero. A full panel inside one output row of a stride-1 conv is one
 * contiguous load per row.
 */
void
packColsPanel(const ConvGeometry &g, const Im2colIndex &ix,
              const float *plane, std::int64_t p0, int nr, std::int64_t k0,
              std::int64_t kc, float *bp)
{
    const std::int32_t *koff = ix.koff + k0;
    const std::int32_t *poff = ix.poff + p0;
    if (nr == NR && g.stride == 1 && p0 % g.ow() + NR <= g.ow()) {
        for (std::int64_t kk = 0; kk < kc; ++kk)
            std::memcpy(bp + kk * NR, plane + koff[kk] + poff[0],
                        NR * sizeof(float));
        return;
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float *src = plane + koff[kk];
        float *dst = bp + kk * NR;
        for (int l = 0; l < nr; ++l)
            dst[l] = src[poff[l]];
        for (int l = nr; l < NR; ++l)
            dst[l] = 0.0f;
    }
}

/**
 * dst[u*NR + l] = rows[l][u] for u, l < NR: a 16×16 transpose, pure
 * data movement (so it cannot change a result). The rows are copied
 * whole first, so every source line is read once, contiguously.
 */
void
transposeTile16(const float *const rows[NR], float *dst)
{
    float tile[NR][NR];
    for (int l = 0; l < NR; ++l)
        std::memcpy(tile[l], rows[l], sizeof(tile[l]));
    for (int u = 0; u < NR; ++u)
        for (int l = 0; l < NR; ++l)
            dst[u * NR + l] = tile[l][u];
}

/**
 * Pack block [p0, p0 + kc) × lane panel [q0, q0 + NR) of cols(plane)ᵀ
 * — pixels on the k axis, column-matrix rows on the lanes — as
 * bp[t*NR + lane]. Lane kdim is the all-ones bias column when
 * @p with_bias; lanes past it are zero. Each run of 16 pixels inside
 * one output row of a stride-1 conv is one 16×16 tile transpose.
 */
void
packColsBlockT(const ConvGeometry &g, const Im2colIndex &ix,
               const float *plane, bool with_bias, std::int64_t q0,
               std::int64_t p0, std::int64_t kc, float *bp)
{
    static const float kOnes[NR] = {1, 1, 1, 1, 1, 1, 1, 1,
                                    1, 1, 1, 1, 1, 1, 1, 1};
    static const float kZeros[NR] = {};
    const std::int64_t kdim = g.kdim();
    const int ow = g.ow();
    // Lane l reads rows[l][poff[p]]; a constant lane reads its table
    // at offset 0 (cols[l] == false).
    const float *rows[NR];
    bool cols[NR];
    for (int l = 0; l < NR; ++l) {
        const std::int64_t q = q0 + l;
        cols[l] = q < kdim;
        rows[l] = cols[l] ? plane + ix.koff[q]
                          : (with_bias && q == kdim ? kOnes : kZeros);
    }
    for (std::int64_t t = 0; t < kc;) {
        const std::int64_t p = p0 + t;
        const std::int64_t run = std::min<std::int64_t>(
            {kc - t, NR, ow - p % ow});
        const std::int32_t off = ix.poff[p];
        if (run == NR && g.stride == 1) {
            const float *tile[NR];
            for (int l = 0; l < NR; ++l)
                tile[l] = cols[l] ? rows[l] + off : rows[l];
            transposeTile16(tile, bp + t * NR);
            t += NR;
            continue;
        }
        // One pixel at a time: row tails, and strided convs.
        for (int l = 0; l < NR; ++l)
            bp[t * NR + l] = cols[l] ? rows[l][off] : rows[l][0];
        ++t;
    }
}

/** One image of convForward; @p ap holds wmat in full-k A panels. */
void
convForwardImage(const ConvGeometry &g, const Im2colIndex &ix,
                 simd::MicroF32Fn micro, const float *ap,
                 const float *image, const float *bias, float *y)
{
    Arena::Scope scope;
    const float *plane = paddedPlane(
        g, ix, image,
        Arena::local().alloc(static_cast<std::size_t>(ix.planeFloats)));
    const std::int64_t kdim = g.kdim();
    const std::int64_t npix = g.pixels();
    const std::int64_t panels = (npix + NR - 1) / NR;
    const std::int64_t kc_max = std::min<std::int64_t>(kdim, kBlockK);
    // Panel-at-a-time: each kBlockK×16 slice of a 16-pixel panel is
    // packed and then consumed by every cout row tile while it is
    // still in L1. Panels advance along output rows inside a k-block,
    // so neighbouring panels' packs share their plane lines in L1.
    parallelFor(0, panels, chunkUnits(panels, 2 * g.cout * kdim * NR),
                [&](std::int64_t j0, std::int64_t j1) {
        Arena::Scope chunk_scope;
        float *bp =
            Arena::local().alloc(static_cast<std::size_t>(kc_max * NR));
        for (std::int64_t k0 = 0; k0 < kdim; k0 += kBlockK) {
            const std::int64_t kc = std::min<std::int64_t>(kBlockK, kdim - k0);
            for (std::int64_t j = j0; j < j1; ++j) {
                const std::int64_t p0 = j * NR;
                const int nr = tileExtent(npix, p0, NR);
                packColsPanel(g, ix, plane, p0, nr, k0, kc, bp);
                for (int i0 = 0; i0 < g.cout; i0 += MR)
                    micro(kc, ap + i0 * kdim + k0 * MR, bp,
                          y + i0 * npix + p0, npix,
                          tileExtent(g.cout, i0, MR), nr, k0 == 0);
            }
        }
        // The bias is a second add after the whole chain, as in the
        // GEMM + bias-pass form.
        if (bias)
            for (int co = 0; co < g.cout; ++co) {
                float *c = y + co * npix;
                const std::int64_t p1 = std::min(j1 * NR, npix);
                for (std::int64_t p = j0 * NR; p < p1; ++p)
                    c[p] += bias[co];
            }
    });
}

/** One image of convBackwardWeights. */
void
convBackwardWeightsImage(const ConvGeometry &g, const Im2colIndex &ix,
                         simd::MicroF32Fn micro, const float *image,
                         const float *dy, bool with_bias, float *dw)
{
    Arena::Scope scope;
    const float *plane = paddedPlane(
        g, ix, image,
        Arena::local().alloc(static_cast<std::size_t>(ix.planeFloats)));
    const std::int64_t npix = g.pixels();
    const std::int64_t ldw = g.kdim() + (with_bias ? 1 : 0);
    // dY is the A operand: cout on the kMicroM-row axis, pixels on k.
    float *ap = Arena::local().alloc(
        static_cast<std::size_t>(roundUp(g.cout, MR) * npix));
    packA(dy, npix, false, 0, g.cout, 0, npix, ap);
    const std::int64_t lane_panels = (ldw + NR - 1) / NR;
    const std::int64_t kc_max = std::min<std::int64_t>(npix, kBlockK);
    parallelFor(0, lane_panels,
                chunkUnits(lane_panels, 2 * g.cout * npix * NR),
                [&](std::int64_t j0, std::int64_t j1) {
        Arena::Scope chunk_scope;
        float *bp =
            Arena::local().alloc(static_cast<std::size_t>(kc_max * NR));
        for (std::int64_t k0 = 0; k0 < npix; k0 += kBlockK) {
            const std::int64_t kc = std::min<std::int64_t>(kBlockK, npix - k0);
            for (std::int64_t j = j0; j < j1; ++j) {
                const std::int64_t q0 = j * NR;
                const int nr = tileExtent(ldw, q0, NR);
                packColsBlockT(g, ix, plane, with_bias, q0, k0, kc, bp);
                for (int i0 = 0; i0 < g.cout; i0 += MR)
                    micro(kc, ap + i0 * npix + k0 * MR, bp,
                          dw + i0 * ldw + q0, ldw,
                          tileExtent(g.cout, i0, MR), nr, k0 == 0);
            }
        }
    });
}

/**
 * Add one row (ch, ky, kx) of dcols into its plane of the dX
 * accumulator @p acc ([hp, wp], the image's plane zero-padded by
 * g.pad): element (oy, ox) lands at (oy·s + ky, ox·s + kx), always in
 * range, so a stride-1 row is one contiguous run. The padding border
 * collects the contributions col2im would clip; it is discarded.
 */
void
foldDcolsRow(const ConvGeometry &g, int wp, int ky, int kx,
             const float *row, float *acc)
{
    const int oh = g.oh(), ow = g.ow();
    for (int oy = 0; oy < oh; ++oy) {
        float *d =
            acc + static_cast<std::size_t>(oy * g.stride + ky) * wp + kx;
        const float *src = row + static_cast<std::size_t>(oy) * ow;
        if (g.stride == 1) {
            for (int ox = 0; ox < ow; ++ox)
                d[ox] += src[ox];
        } else {
            for (int ox = 0; ox < ow; ++ox)
                d[ox * g.stride] += src[ox];
        }
    }
}

/** One image of convBackwardData. */
void
convBackwardDataImage(const ConvGeometry &g, simd::MicroF32Fn micro,
                      const float *wmat, const float *dy, float *dx)
{
    // dcols rows per tile: the tile (rows × OH·OW) stays within
    // kDcolsTileFloats (64 KiB), so the fold reads it from L1/L2.
    constexpr std::int64_t kDcolsTileFloats = 1 << 14;
    Arena::Scope scope;
    const int khkw = g.kh * g.kw;
    const std::int64_t kdim = g.kdim();
    const std::int64_t npix = g.pixels();
    const int hp = g.h + 2 * g.pad, wp = g.w + 2 * g.pad;
    const std::int64_t plane_sz = static_cast<std::int64_t>(g.h) * g.w;
    const std::int64_t padded_sz = static_cast<std::int64_t>(hp) * wp;
    // dY is the B operand: pixels on the 16-lane axis, cout on k.
    float *bp = Arena::local().alloc(
        static_cast<std::size_t>(roundUp(npix, NR) * g.cout));
    packB(dy, npix, false, g.cout, npix, bp);
    // Input channels split into groups that own disjoint dX planes; a
    // multiple of kMicroM channels keeps the groups' row tiles full.
    const int group = static_cast<int>(std::min<std::int64_t>(
        g.cin, roundUp(chunkUnits(g.cin, 2 * khkw * npix * g.cout), MR)));
    const std::int64_t rows_max = static_cast<std::int64_t>(group) * khkw;
    const std::int64_t tile_rows = std::min(
        rows_max,
        std::max<std::int64_t>(MR, kDcolsTileFloats / npix / MR * MR));
    parallelFor(0, (g.cin + group - 1) / group, 1,
                [&](std::int64_t g0, std::int64_t g1) {
        Arena::Scope chunk_scope;
        float *ap = Arena::local().alloc(
            static_cast<std::size_t>(roundUp(rows_max, MR) * g.cout));
        float *dcols =
            Arena::local().alloc(static_cast<std::size_t>(tile_rows * npix));
        float *padded = Arena::local().alloc(static_cast<std::size_t>(
            g.pad > 0 ? group * padded_sz : 0));
        for (std::int64_t gi = g0; gi < g1; ++gi) {
            const int c0 = static_cast<int>(gi) * group;
            const int channels = std::min(group, g.cin - c0);
            const std::int64_t r0 = static_cast<std::int64_t>(c0) * khkw;
            const std::int64_t rows =
                static_cast<std::int64_t>(channels) * khkw;
            float *acc = g.pad > 0 ? padded : dx + c0 * plane_sz;
            std::fill(acc, acc + channels * padded_sz, 0.0f);
            // Wᵀ rows of this group, all of k (= cout) per panel.
            packA(wmat, kdim, true, r0, r0 + rows, 0, g.cout, ap);
            // dcols one tile of rows at a time, each folded while it is
            // in cache: rows ascend, so every dX element takes its
            // (ky, kx) contributions in col2im's order.
            for (std::int64_t t0 = 0; t0 < rows; t0 += tile_rows) {
                const std::int64_t t1 = std::min(rows, t0 + tile_rows);
                for (std::int64_t p0 = 0; p0 < npix; p0 += NR) {
                    const int nr = tileExtent(npix, p0, NR);
                    const float *bpp = bp + (p0 / NR) * g.cout * NR;
                    for (std::int64_t i0 = t0; i0 < t1; i0 += MR)
                        for (std::int64_t k0 = 0; k0 < g.cout; k0 += kBlockK)
                            micro(std::min<std::int64_t>(kBlockK, g.cout - k0),
                                  ap + i0 * g.cout + k0 * MR, bpp + k0 * NR,
                                  dcols + (i0 - t0) * npix + p0, npix,
                                  tileExtent(t1, i0, MR), nr, k0 == 0);
                }
                for (std::int64_t q = t0; q < t1; ++q) // row within the group
                    foldDcolsRow(g, wp, static_cast<int>(q / g.kw % g.kh),
                                 static_cast<int>(q % g.kw),
                                 dcols + (q - t0) * npix,
                                 acc + q / khkw * padded_sz);
            }
            if (g.pad > 0)
                for (int ch = 0; ch < channels; ++ch)
                    for (int y = 0; y < g.h; ++y) {
                        const float *src = padded + ch * padded_sz
                                           + std::int64_t{y + g.pad} * wp
                                           + g.pad;
                        std::copy(src, src + g.w,
                                  dx + (c0 + ch) * plane_sz
                                      + std::int64_t{y} * g.w);
                    }
        }
    });
}

} // namespace

void
gemmBlocked(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
            std::int64_t lda, bool trans_a, const float *b,
            std::int64_t ldb, bool trans_b, float *c, std::int64_t ldc,
            bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        if (!accumulate)
            zeroC(m, n, c, ldc);
        return;
    }
    Arena::Scope scope;
    float *bp = Arena::local().alloc(
        static_cast<std::size_t>(roundUp(n, NR) * k));
    packB(b, ldb, trans_b, k, n, bp);
    gemmWithPackedB(m, n, k, a, lda, trans_a, bp, c, ldc, accumulate);
}

void
gemmReference(std::int64_t m, std::int64_t n, std::int64_t k,
              const float *a, std::int64_t lda, bool trans_a,
              const float *b, std::int64_t ldb, bool trans_b, float *c,
              std::int64_t ldc, bool accumulate)
{
    if (!accumulate)
        zeroC(m, n, c, ldc);
    for (std::int64_t i = 0; i < m; ++i) {
        float *crow = c + i * ldc;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = trans_a ? a[kk * lda + i] : a[i * lda + kk];
            if (!trans_b) {
                const float *brow = b + kk * ldb;
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] = std::fmaf(av, brow[j], crow[j]);
            } else {
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] = std::fmaf(av, b[j * ldb + kk], crow[j]);
            }
        }
    }
}

void
im2colRaw(const float *src, int c, int h, int w, int kh, int kw,
          int stride, int pad, float *dst)
{
    const int oh = (h + 2 * pad - kh) / stride + 1;
    const int ow = (w + 2 * pad - kw) / stride + 1;
    const std::int64_t ncols = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t kdim = static_cast<std::int64_t>(c) * kh * kw;
    for (std::int64_t kk = 0; kk < kdim; ++kk) {
        const int kx = static_cast<int>(kk % kw);
        const int ky = static_cast<int>(kk / kw) % kh;
        const int ch = static_cast<int>(kk / (kh * kw));
        const float *plane = src + static_cast<std::size_t>(ch) * h * w;
        int ox_lo, ox_hi;
        validRange(w, ow, stride, pad, kx, ox_lo, ox_hi);
        for (int oy = 0; oy < oh; ++oy) {
            float *out = dst + kk * ncols + static_cast<std::int64_t>(oy) * ow;
            const int iy = oy * stride + ky - pad;
            if (iy < 0 || iy >= h) {
                std::fill(out, out + ow, 0.0f);
                continue;
            }
            const float *row = plane + static_cast<std::size_t>(iy) * w;
            std::fill(out, out + ox_lo, 0.0f);
            for (int ox = ox_lo; ox < ox_hi; ++ox)
                out[ox] = row[ox * stride + kx - pad];
            std::fill(out + ox_hi, out + ow, 0.0f);
        }
    }
}

// leca-analyze: keep: test reference — the dX fold's adjoint
void
col2imRaw(const float *cols, int channels, int height, int width, int kh,
          int kw, int stride, int pad, float *dst)
{
    const int oh = (height + 2 * pad - kh) / stride + 1;
    const int ow = (width + 2 * pad - kw) / stride + 1;
    for (int ch = 0; ch < channels; ++ch) {
        for (int ky = 0; ky < kh; ++ky) {
            for (int kx = 0; kx < kw; ++kx) {
                const int row = (ch * kh + ky) * kw + kx;
                const float *srow =
                    cols + static_cast<std::size_t>(row) * oh * ow;
                // Out-of-range positions were skipped, not accumulated:
                // restricting ox to the valid range performs the same
                // += operations in the same order, branch-free.
                int ox_lo, ox_hi;
                validRange(width, ow, stride, pad, kx, ox_lo, ox_hi);
                for (int oy = 0; oy < oh; ++oy) {
                    const int iy = oy * stride + ky - pad;
                    if (iy < 0 || iy >= height)
                        continue;
                    float *drow =
                        dst + (static_cast<std::size_t>(ch) * height + iy)
                              * width;
                    const float *s = srow + static_cast<std::size_t>(oy) * ow;
                    for (int ox = ox_lo; ox < ox_hi; ++ox)
                        drow[ox * stride + kx - pad] += s[ox];
                }
            }
        }
    }
}

// leca-analyze: entry
void
convForward(const ConvGeometry &g, int n, const float *x, const float *wmat,
            const float *bias, float *y)
{
    checkGeometry(g);
    Arena::Scope scope;
    const simd::MicroF32Fn micro = activeKernels().microF32;
    const Im2colIndex ix = makeIm2colIndex(g);
    const std::int64_t kdim = g.kdim();
    // The weights are the A operand, packed once per call.
    float *ap = Arena::local().alloc(
        static_cast<std::size_t>(roundUp(g.cout, MR) * kdim));
    packA(wmat, kdim, false, 0, g.cout, 0, kdim, ap);
    const std::size_t in_sz = static_cast<std::size_t>(g.cin) * g.h * g.w;
    const std::size_t out_sz = static_cast<std::size_t>(g.cout) * g.pixels();
    forEachImage(n, [&](std::int64_t i) {
        convForwardImage(g, ix, micro, ap, x + i * in_sz, bias,
                         y + i * out_sz);
    });
}

// leca-analyze: entry
void
convBackwardWeights(const ConvGeometry &g, int n, const float *x,
                    const float *dy, bool with_bias, float *dw)
{
    checkGeometry(g);
    Arena::Scope scope;
    const simd::MicroF32Fn micro = activeKernels().microF32;
    const Im2colIndex ix = makeIm2colIndex(g);
    const std::size_t in_sz = static_cast<std::size_t>(g.cin) * g.h * g.w;
    const std::size_t dy_sz = static_cast<std::size_t>(g.cout) * g.pixels();
    const std::size_t dw_sz = static_cast<std::size_t>(g.cout)
                              * (g.kdim() + (with_bias ? 1 : 0));
    forEachImage(n, [&](std::int64_t i) {
        convBackwardWeightsImage(g, ix, micro, x + i * in_sz, dy + i * dy_sz,
                                 with_bias, dw + i * dw_sz);
    });
}

// leca-analyze: entry
void
convBackwardData(const ConvGeometry &g, int n, const float *dy,
                 const float *wmat, float *dx)
{
    checkGeometry(g);
    const simd::MicroF32Fn micro = activeKernels().microF32;
    const std::size_t dy_sz = static_cast<std::size_t>(g.cout) * g.pixels();
    const std::size_t dx_sz = static_cast<std::size_t>(g.cin) * g.h * g.w;
    forEachImage(n, [&](std::int64_t i) {
        convBackwardDataImage(g, micro, wmat, dy + i * dy_sz, dx + i * dx_sz);
    });
}

} // namespace leca
