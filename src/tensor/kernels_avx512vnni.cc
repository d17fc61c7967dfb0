/**
 * @file
 * AVX-512 VNNI int8 dot kernel. Compiled with -mavx512f -mavx512bw
 * -mavx512vl -mavx512vnni -ffp-contract=off (see simd.hh).
 *
 * VPDPBUSD takes an unsigned left operand, so one side must be biased
 * by 128 (XOR 0x80 in two's complement). Biasing the *B* side makes
 * the correction term depend only on A:
 *     dpbusd(ub, a) = Σ a·b + 128·Σ a,
 * and 128·Σgroup(a) is itself one VPDPBUSD against a constant 128
 * vector — computed once per call into a stack table (A is fixed for
 * the whole call) instead of once per (block, row) like a B-side
 * correction would be. The table stores the *negated* correction so it
 * slots straight into VPDPBUSD's accumulator operand: one instruction
 * yields the exact signed group sums. All integer, all exact.
 *
 * Two 32-element blocks ride in each zmm: lanes 0–7 are block b's
 * groups (bank 0 of the pinned dot structure), lanes 8–15 block b+1's
 * (bank 1), so the even/odd float accumulator banks are simply the two
 * halves of one zmm accumulator. Four B rows are processed in flight;
 * each row's accumulator is an independent dependency chain, so the
 * vaddps latency of one chain overlaps the other three instead of
 * stalling the loop. Blocks within a row still accumulate in pinned
 * order — interleaving across rows never reorders anything within one.
 * Per-row scale products sa[b]*sb[b] are precomputed with vectorized
 * multiplies (lane-wise IEEE, bit-identical to the scalar products)
 * and reach the lanes as broadcast loads, keeping the hot loop's two
 * 512-bit ALU ports for exactly four ops per block pair per row:
 * xor, dpbusd, cvt, and the fused multiply-add the contract pins.
 * (A pre-expanded 16-float-per-pair scale table was tried and is
 * faster in an L1-resident standalone loop, but its 8x staging store
 * traffic loses more than the hot loop gains once the resident conv
 * re-stages per panel visit.)
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

#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

/** ((t0+t2) + (t1+t3)) reduction — identical to the AVX2/scalar tree. */
inline float
reduceGroups(__m256 v)
{
    const __m128 t =
        _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    const __m128 r = _mm_add_ss(u, _mm_shuffle_ps(u, u, 0x55));
    return _mm_cvtss_f32(r);
}

/**
 * One (a-block-pair, b-row) step of the pinned dot: exact int32 group
 * sums (the dpbusd accumulator starts at the negated A correction),
 * then one fused multiply-add per block into the row's zmm
 * accumulator. @p sp_pair points at the pair's two scale products;
 * sp_pair[0], sp_pair[1] reach the two 8-lane banks as broadcast
 * *loads* (plain + merge-masked VBROADCASTSS from memory), which ride
 * the load ports and leave both 512-bit ALU ports to the
 * xor/dpbusd/cvt/fma that do the actual math.
 */
template <bool kPreBiased>
inline __m512
pairStep(__m512 acc, __m512i va, __m512i corr_neg, const float *sp_pair,
         const std::int8_t *qbr, std::int64_t b, __m512i bias512)
{
    const __m512i vb = _mm512_loadu_si512(qbr + b * 32);
    const __m512i ub =
        kPreBiased ? vb : _mm512_xor_si512(vb, bias512);
    const __m512i d = _mm512_dpbusd_epi32(corr_neg, ub, va);
    const __m512 gf = _mm512_cvtepi32_ps(d);
    const __m512 lo = _mm512_set1_ps(sp_pair[0]);
    const __m512 sv = _mm512_mask_broadcastss_ps(
        lo, static_cast<__mmask16>(0xFF00), _mm_load_ss(sp_pair + 1));
    return _mm512_fmadd_ps(sv, gf, acc);
}

/** Odd trailing block (even index): extends bank 0's lane chains. The
 *  tail's A code and negated correction are staged once per call by
 *  the caller — like the paired blocks, not recomputed per row. */
template <bool kPreBiased>
inline __m256
tailStep(__m256 bank0, __m256i tva, __m256i tcorr_neg, float sp,
         const std::int8_t *qbr, std::int64_t b, __m256i bias256)
{
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(qbr + b * 32));
    const __m256i ub =
        kPreBiased ? vb : _mm256_xor_si256(vb, bias256);
    const __m256i d = _mm256_dpbusd_epi32(tcorr_neg, ub, tva);
    const __m256 gf = _mm256_cvtepi32_ps(d);
    return _mm256_fmadd_ps(_mm256_set1_ps(sp), gf, bank0);
}

/** Bank split + odd tail + group reduction for one finished row.
 *  @p sp is the tail block's scale product (ignored when nb is even). */
template <bool kPreBiased>
inline float
finishRow(__m512 acc, bool odd, __m256i tva, __m256i tcorr_neg, float sp,
          const std::int8_t *qbr, std::int64_t nb, __m256i bias256)
{
    __m256 bank0 = _mm512_castps512_ps256(acc);
    const __m256 bank1 = _mm512_extractf32x8_ps(acc, 1);
    if (odd)
        bank0 = tailStep<kPreBiased>(bank0, tva, tcorr_neg, sp, qbr,
                                     nb - 1, bias256);
    return reduceGroups(_mm256_add_ps(bank0, bank1));
}

/**
 * out[i] = sa[i] * sbr[i] for i < count — vectorized but lane-wise,
 * so every product is bit-identical to the scalar sa[i]*sbr[i].
 */
inline void
scaleProducts(const float *sa, const float *sbr, std::int64_t count,
              float *out)
{
    std::int64_t i = 0;
    for (; i + 16 <= count; i += 16)
        _mm512_storeu_ps(out + i,
                         _mm512_mul_ps(_mm512_loadu_ps(sa + i),
                                       _mm512_loadu_ps(sbr + i)));
    if (i < count) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (count - i)) - 1);
        _mm512_mask_storeu_ps(
            out + i, m,
            _mm512_maskz_mul_ps(m, _mm512_maskz_loadu_ps(m, sa + i),
                                _mm512_maskz_loadu_ps(m, sbr + i)));
    }
}

/** Scale-product staging granularity: pairs per chunk (k ≤ 16384 runs
 *  in one chunk; larger k just re-stages, chains carry across). */
constexpr std::int64_t kChunkPairs = 256;

/**
 * Shared body of dotQ8RowVnni (kPreBiased = false: XOR each B block
 * with 0x80 in-flight) and dotQ8RowUBVnni (kPreBiased = true: B bytes
 * arrive already biased, the XOR disappears from the hot loop).
 *
 * Eight rows in flight: the per-row accumulator chain is one fused
 * multiply-add per block pair, and FMA latency (4-5 cycles) against
 * its multi-per-cycle throughput needs ~8 independent chains before
 * the loop stops being latency-bound. The A block pair and its negated
 * correction are computed on the fly once per pair — amortized over
 * the eight rows they cost well under one op per pairStep, and going
 * table-free keeps this call cheap enough for the resident conv's
 * panel x tile loop to issue it once per (patch row, weight tile).
 */
template <bool kPreBiased>
void
dotQ8RowCore(const std::int8_t *qa, const float *sa, const std::int8_t *qb,
             const float *sb, std::int64_t nb, std::int64_t n, float *c)
{
    const __m512i bias512 = _mm512_set1_epi8(static_cast<char>(0x80));
    const __m256i bias256 = _mm256_set1_epi8(static_cast<char>(0x80));
    const std::int64_t row_bytes = nb * 32;
    const std::int64_t pairs = nb / 2;
    const bool odd = (nb & 1) != 0;

    // Odd trailing A block: staged once per call.
    __m256i tva = _mm256_setzero_si256();
    __m256i tcorr_neg = _mm256_setzero_si256();
    if (odd) {
        tva = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(qa + (nb - 1) * 32));
        tcorr_neg = _mm256_sub_epi32(
            _mm256_setzero_si256(),
            _mm256_dpbusd_epi32(_mm256_setzero_si256(), bias256, tva));
    }

    alignas(64) float spt[8][2 * kChunkPairs];

    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const std::int8_t *qbr[8];
        const float *sbr[8];
        for (int r = 0; r < 8; ++r) {
            qbr[r] = qb + (j + r) * row_bytes;
            sbr[r] = sb + (j + r) * nb;
        }
        __m512 acc[8];
        for (int r = 0; r < 8; ++r)
            acc[r] = _mm512_setzero_ps();
        for (std::int64_t pc = 0; pc < pairs; pc += kChunkPairs) {
            const std::int64_t pe =
                pairs < pc + kChunkPairs ? pairs : pc + kChunkPairs;
            const std::int64_t sp_count = 2 * (pe - pc);
            for (int r = 0; r < 8; ++r)
                scaleProducts(sa + 2 * pc, sbr[r] + 2 * pc, sp_count,
                              spt[r]);
            for (std::int64_t p = pc; p < pe; ++p) {
                const std::int64_t b = 2 * p;
                const __m512i va = _mm512_loadu_si512(qa + b * 32);
                const __m512i corr_neg = _mm512_sub_epi32(
                    _mm512_setzero_si512(),
                    _mm512_dpbusd_epi32(_mm512_setzero_si512(), bias512,
                                        va));
                for (int r = 0; r < 8; ++r)
                    acc[r] = pairStep<kPreBiased>(acc[r], va, corr_neg,
                                                  spt[r] + (b - 2 * pc),
                                                  qbr[r], b, bias512);
            }
        }
        for (int r = 0; r < 8; ++r)
            c[j + r] = finishRow<kPreBiased>(
                acc[r], odd, tva, tcorr_neg,
                odd ? sa[nb - 1] * sbr[r][nb - 1] : 0.0f, qbr[r], nb,
                bias256);
    }
    for (; j + 4 <= n; j += 4) {
        const std::int8_t *qbr[4];
        const float *sbr[4];
        for (int r = 0; r < 4; ++r) {
            qbr[r] = qb + (j + r) * row_bytes;
            sbr[r] = sb + (j + r) * nb;
        }
        __m512 acc[4];
        for (int r = 0; r < 4; ++r)
            acc[r] = _mm512_setzero_ps();
        for (std::int64_t pc = 0; pc < pairs; pc += kChunkPairs) {
            const std::int64_t pe =
                pairs < pc + kChunkPairs ? pairs : pc + kChunkPairs;
            const std::int64_t sp_count = 2 * (pe - pc);
            for (int r = 0; r < 4; ++r)
                scaleProducts(sa + 2 * pc, sbr[r] + 2 * pc, sp_count,
                              spt[r]);
            for (std::int64_t p = pc; p < pe; ++p) {
                const std::int64_t b = 2 * p;
                const __m512i va = _mm512_loadu_si512(qa + b * 32);
                const __m512i corr_neg = _mm512_sub_epi32(
                    _mm512_setzero_si512(),
                    _mm512_dpbusd_epi32(_mm512_setzero_si512(), bias512,
                                        va));
                for (int r = 0; r < 4; ++r)
                    acc[r] = pairStep<kPreBiased>(acc[r], va, corr_neg,
                                                  spt[r] + (b - 2 * pc),
                                                  qbr[r], b, bias512);
            }
        }
        for (int r = 0; r < 4; ++r)
            c[j + r] = finishRow<kPreBiased>(
                acc[r], odd, tva, tcorr_neg,
                odd ? sa[nb - 1] * sbr[r][nb - 1] : 0.0f, qbr[r], nb,
                bias256);
    }
    for (; j < n; ++j) {
        const std::int8_t *qbr = qb + j * row_bytes;
        const float *sbr = sb + j * nb;
        __m512 acc = _mm512_setzero_ps();
        for (std::int64_t pc = 0; pc < pairs; pc += kChunkPairs) {
            const std::int64_t pe =
                pairs < pc + kChunkPairs ? pairs : pc + kChunkPairs;
            scaleProducts(sa + 2 * pc, sbr + 2 * pc, 2 * (pe - pc),
                          spt[0]);
            for (std::int64_t p = pc; p < pe; ++p) {
                const std::int64_t b = 2 * p;
                const __m512i va = _mm512_loadu_si512(qa + b * 32);
                const __m512i corr_neg = _mm512_sub_epi32(
                    _mm512_setzero_si512(),
                    _mm512_dpbusd_epi32(_mm512_setzero_si512(), bias512,
                                        va));
                acc = pairStep<kPreBiased>(acc, va, corr_neg,
                                           spt[0] + (b - 2 * pc), qbr, b,
                                           bias512);
            }
        }
        c[j] = finishRow<kPreBiased>(acc, odd, tva, tcorr_neg,
                         odd ? sa[nb - 1] * sbr[nb - 1] : 0.0f, qbr, nb,
                         bias256);
    }
}

} // namespace

void
dotQ8RowVnni(const std::int8_t *qa, const float *sa, const std::int8_t *qb,
             const float *sb, std::int64_t nb, std::int64_t n, float *c)
{
    dotQ8RowCore<false>(qa, sa, qb, sb, nb, n, c);
}

void
dotQ8RowUBVnni(const std::int8_t *qa, const float *sa,
               const std::uint8_t *qb_biased, const float *sb,
               std::int64_t nb, std::int64_t n, float *c)
{
    dotQ8RowCore<true>(qa, sa,
                       reinterpret_cast<const std::int8_t *>(qb_biased),
                       sb, nb, n, c);
}

} // namespace leca::simd::detail

#endif // __AVX512F__ && __AVX512VNNI__ && __AVX512VL__
