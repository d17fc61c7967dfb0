/**
 * @file
 * AVX-512 VNNI int8 panel kernel. Compiled with -mavx512f -mavx512bw
 * -mavx512vl -mavx512vnni -ffp-contract=off (see simd.hh).
 *
 * Output channels ride the vector lanes: one zmm holds sixteen output
 * channels of one panel row. Each pack step is a [16 ch × 4 k] int8
 * tile, and the panel row's four activation codes for that step are
 * broadcast to every lane, so one VPDPBUSD adds four products to each
 * of sixteen outputs — no horizontal reduction anywhere, and every
 * weight byte loaded once per tile serves MR rows.
 *
 * VPDPBUSD multiplies unsigned by signed bytes. The activation codes
 * are read in place through the row's tap pointers (signed, as the
 * resident plane holds them), and each broadcast is biased by +128
 * (code XOR 0x80) in its register, which makes it the unsigned operand:
 *     dpbusd(a + 128, w) = Σ a·w + 128·Σ w,
 * and the correction depends on the weights alone. The pack stores
 * −128·Σ w per (channel, block), and each block's int32 accumulators
 * start from it, so after the block's eight VPDPBUSD they hold the
 * exact signed block dots. All integer, all exact.
 *
 * Per (row, channel group, block) the float side is three ops: convert
 * the block dot, multiply the row's activation scale by the group's
 * sixteen weight scales, and one fused multiply-add — the pinned fold
 * of DotQ8PanelFn. Tiles are MR rows × NR groups: 4 × 2 (eight int32
 * and eight float accumulators, two weight loads and four broadcasts
 * per eight VPDPBUSD), and 8 × 1 when one group is left, which also
 * covers the narrow heads (cout <= 16).
 */

#if defined(__AVX512F__) && defined(__AVX512VNNI__) && defined(__AVX512VL__)

// GCC bug 105593: avx512fintrin.h raises a false -Wmaybe-uninitialized
// once inlined; silence it for the header only (Clang lacks the group).
#pragma GCC diagnostic push
#ifndef __clang__
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cstring>

#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

/** The four activation codes at @p p in every 32-bit lane, biased by
 *  +128 (XOR 0x80) into VPDPBUSD's unsigned operand. */
inline __m512i
broadcastCodes(const std::int8_t *p, __m512i bias)
{
    std::int32_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return _mm512_xor_si512(_mm512_set1_epi32(v), bias);
}

/**
 * One block of MR rows × NR groups: the eight VPDPBUSD steps from the
 * pack's compensation, then the fold into the float accumulators.
 * ab[r] points at row r's 32 codes, sa[r] is its scale.
 */
template <int MR, int NR>
inline void
panelBlock(const std::int8_t *const *ab, const float *sa, const std::int8_t *wc,
           const std::int32_t *wcomp, const float *wsc, std::int64_t gstride,
           __m512i bias, __m512 (&acc)[MR][NR])
{
    __m512i d[MR][NR];
    for (int j = 0; j < NR; ++j) {
        const __m512i comp = _mm512_loadu_si512(wcomp + j * gstride);
        for (int r = 0; r < MR; ++r)
            d[r][j] = comp;
    }
#pragma GCC unroll 8
    for (int st = 0; st < 8; ++st) {
        __m512i wv[NR];
        for (int j = 0; j < NR; ++j)
            wv[j] = _mm512_loadu_si512(wc + j * gstride * 32 + st * 64);
        for (int r = 0; r < MR; ++r) {
            const __m512i av = broadcastCodes(ab[r] + 4 * st, bias);
            for (int j = 0; j < NR; ++j)
                d[r][j] = _mm512_dpbusd_epi32(d[r][j], av, wv[j]);
        }
    }
    __m512 sw[NR];
    for (int j = 0; j < NR; ++j)
        sw[j] = _mm512_loadu_ps(wsc + j * gstride);
    for (int r = 0; r < MR; ++r) {
        const __m512 sar = _mm512_set1_ps(sa[r]);
        for (int j = 0; j < NR; ++j)
            acc[r][j] = _mm512_fmadd_ps(_mm512_mul_ps(sar, sw[j]),
                                        _mm512_cvtepi32_ps(d[r][j]),
                                        acc[r][j]);
    }
}

/**
 * MR panel rows × NR consecutive 16-channel groups starting at group
 * @p g; row r's tap pointers are q[r·taps + t] and s[r·taps + t], each
 * tap NBT blocks (NBT = 0: read it from the pack). @p live is the
 * number of live channels in the last group of the whole pack; only
 * that group is stored under a mask.
 */
template <int MR, int NR, int NBT>
inline void
panelTile(const std::int8_t *const *q, const float *const *s,
          std::int64_t taps, const Q8PackView &w, std::int64_t g, float *c,
          std::int64_t ldc, int live)
{
    const std::int64_t nb = w.nb;
    const std::int64_t nbt = NBT > 0 ? NBT : nb / taps;
    const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
    // Group j's pack runs at a fixed distance past group 0's.
    const std::int8_t *wc = w.codes + g * nb * 512;
    const std::int32_t *wcomp = w.comp + g * nb * 16;
    const float *wsc = w.scales + g * nb * 16;
    const std::int64_t gstride = nb * 16;
    __m512 acc[MR][NR];
    for (int r = 0; r < MR; ++r)
        for (int j = 0; j < NR; ++j)
            acc[r][j] = _mm512_setzero_ps();
    for (std::int64_t t = 0; t < taps; ++t) {
        const std::int8_t *ab[MR];
        float sa[MR];
        for (std::int64_t k = 0; k < nbt;
             ++k, wc += 512, wcomp += 16, wsc += 16) {
            for (int r = 0; r < MR; ++r) {
                ab[r] = q[r * taps + t] + k * 32;
                sa[r] = s[r * taps + t][k];
            }
            panelBlock<MR, NR>(ab, sa, wc, wcomp, wsc, gstride, bias, acc);
        }
    }
    const std::int64_t groups = (w.cout + 15) / 16;
    for (int j = 0; j < NR; ++j) {
        const __mmask16 m = g + j + 1 < groups
                                ? static_cast<__mmask16>(0xFFFF)
                                : static_cast<__mmask16>((1u << live) - 1u);
        for (int r = 0; r < MR; ++r)
            _mm512_mask_storeu_ps(c + r * ldc + (g + j) * 16, m, acc[r][j]);
    }
}

/** Every row of the panel against NR groups starting at @p g, in
 *  tiles of MR rows and then single rows. */
template <int MR, int NR, int NBT>
inline void
panelRows(const std::int8_t *const *q, const float *const *s,
          std::int64_t rows, std::int64_t taps, const Q8PackView &w,
          std::int64_t g, float *c, std::int64_t ldc, int live)
{
    std::int64_t r = 0;
    for (; r + MR <= rows; r += MR)
        panelTile<MR, NR, NBT>(q + r * taps, s + r * taps, taps, w, g,
                               c + r * ldc, ldc, live);
    for (; r < rows; ++r)
        panelTile<1, NR, NBT>(q + r * taps, s + r * taps, taps, w, g,
                              c + r * ldc, ldc, live);
}

/** The panel with each tap's block count fixed at NBT. */
template <int NBT>
inline void
panelAll(const std::int8_t *const *q, const float *const *s,
         std::int64_t rows, std::int64_t taps, const Q8PackView &w, float *c,
         std::int64_t ldc)
{
    const std::int64_t groups = (w.cout + 15) / 16;
    const int live = static_cast<int>(w.cout - (groups - 1) * 16);
    std::int64_t g = 0;
    for (; g + 2 <= groups; g += 2)
        panelRows<4, 2, NBT>(q, s, rows, taps, w, g, c, ldc, live);
    if (g < groups)
        panelRows<8, 1, NBT>(q, s, rows, taps, w, g, c, ldc, live);
}

} // namespace

void
dotQ8PanelVnni(const std::int8_t *const *q, const float *const *s,
               std::int64_t rows, std::int64_t taps, const Q8PackView &w,
               float *c, std::int64_t ldc)
{
    switch (w.nb / taps) {
      case 1: panelAll<1>(q, s, rows, taps, w, c, ldc); break;
      case 2: panelAll<2>(q, s, rows, taps, w, c, ldc); break;
      case 4: panelAll<4>(q, s, rows, taps, w, c, ldc); break;
      default: panelAll<0>(q, s, rows, taps, w, c, ldc); break;
    }
}

} // namespace leca::simd::detail

#endif // __AVX512F__ && __AVX512VNNI__ && __AVX512VL__
