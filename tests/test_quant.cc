/**
 * @file
 * The int8 block-quantization contract (DESIGN.md §12): the code
 * format's invariants (range, padding, round-trip error), the
 * quantize policy for non-finite and tiny inputs, known answers and
 * bit-exact agreement of every compiled kernel set's int8 panel with
 * the scalar reference at adversarial shapes, closeness of quantized
 * layer forwards to fp32 (the resident conv's thread invariance and
 * fp32 tracking live in test_resident.cc), the eval-only restriction,
 * the quantized checkpoint round-trip, and heap-silence of the warm
 * quantized serving path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "data/serialize.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/sequential.hh"
#include "tensor/isa.hh"
#include "tensor/quant.hh"
#include "tensor/simd.hh"
#include "util/alloc_guard.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {
namespace {

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

/** Restores the ambient thread count after each test. */
class QuantTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

struct QuantGemmShape
{
    std::int64_t m, n, k;
};

/**
 * Adversarial shapes for the quantized GEMM (m panel rows, each
 * against n output channels): single rows/columns on both sides, k
 * below / at / just past one 32-element block (nb = 1 and odd nb), n
 * straddling the 16-channel groups and the kernels' 2-group tiles, and
 * m straddling the 4- and 8-row tiles and the 16-row panel.
 */
const QuantGemmShape kQuantShapes[] = {
    {1, 1, 1},      {1, 1, 32},    {1, 7, 31},    {3, 1, 33},
    {2, 9, 64},     {5, 8, 96},    {4, 23, 160},  {15, 31, 65},
    {16, 32, 96},   {17, 33, 97},  {33, 57, 129}, {7, 129, 288},
};

void
quantPair(const QuantGemmShape &s, std::vector<std::int8_t> &qa,
          std::vector<float> &sa, std::vector<std::int8_t> &qb,
          std::vector<float> &sb, std::int64_t &nb)
{
    nb = quantBlocks(s.k);
    qa.assign(static_cast<std::size_t>(s.m * nb * kQuantBlock), 0);
    sa.assign(static_cast<std::size_t>(s.m * nb), 0.0f);
    qb.assign(static_cast<std::size_t>(s.n * nb * kQuantBlock), 0);
    sb.assign(static_cast<std::size_t>(s.n * nb), 0.0f);
    const std::vector<float> a =
        randomVec(static_cast<std::size_t>(s.m * s.k), 11 * s.m + s.k);
    const std::vector<float> b =
        randomVec(static_cast<std::size_t>(s.n * s.k), 13 * s.n + s.k);
    quantizeRowsInto(a.data(), s.m, s.k, qa.data(), sa.data());
    quantizeRowsInto(b.data(), s.n, s.k, qb.data(), sb.data());
}

/** A QuantTensor over rows × nb blocks of codes and scales, packed. */
QuantTensor
packed(std::int64_t rows, std::int64_t nb, const std::vector<std::int8_t> &q,
       const std::vector<float> &scales)
{
    QuantTensor qt;
    qt.shape = {static_cast<int>(rows), static_cast<int>(nb * kQuantBlock)};
    qt.rows = rows;
    qt.cols = nb * kQuantBlock;
    qt.nb = nb;
    qt.q = q;
    qt.scales = scales;
    qt.buildPack();
    return qt;
}

/**
 * C (m×n) = Aq · Bqᵀ through the active dotQ8Panel, the m rows fed in
 * panels of @p panel_rows, each row one tap of all nb blocks (the
 * Linear driver's form).
 */
std::vector<float>
dotRows(const QuantGemmShape &s, std::int64_t nb,
        const std::vector<std::int8_t> &qa, const std::vector<float> &sa,
        const QuantTensor &wb, std::int64_t panel_rows)
{
    const simd::DotQ8PanelFn panel = activeKernels().dotQ8Panel;
    std::vector<const std::int8_t *> tq(static_cast<std::size_t>(s.m));
    std::vector<const float *> ts(static_cast<std::size_t>(s.m));
    for (std::int64_t r = 0; r < s.m; ++r) {
        tq[static_cast<std::size_t>(r)] = qa.data() + r * nb * kQuantBlock;
        ts[static_cast<std::size_t>(r)] = sa.data() + r * nb;
    }
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), -1.0f);
    for (std::int64_t i = 0; i < s.m; i += panel_rows)
        panel(tq.data() + i, ts.data() + i, std::min(panel_rows, s.m - i), 1,
              wb.pack.view(), c.data() + i * s.n, s.n);
    return c;
}

TEST_F(QuantTest, RoundTripErrorBoundedByBlockScale)
{
    const std::int64_t rows = 7, cols = 105; // padded tail block
    Tensor w = Tensor::fromData(
        {static_cast<int>(rows), static_cast<int>(cols)},
        randomVec(static_cast<std::size_t>(rows * cols), 3));
    const QuantTensor qt = quantizeRowMajor(w, rows, cols);
    EXPECT_EQ(qt.nb, quantBlocks(cols));
    // Round-to-nearest against a scale of amax/127 cannot miss by more
    // than half a step of the worst block, and amax <= 1 here.
    EXPECT_LE(quantMaxAbsError(w, qt), 0.5f / 127.0f + 1e-7f);
    const Tensor r = dequantizeRowMajor(qt);
    ASSERT_EQ(r.numel(), w.numel());
}

TEST_F(QuantTest, CodesStayInSymmetricRangeAndPaddingIsZero)
{
    const std::int64_t rows = 9, cols = 70; // 3 blocks, 26 padded lanes
    Tensor w = Tensor::fromData(
        {static_cast<int>(rows), static_cast<int>(cols)},
        randomVec(static_cast<std::size_t>(rows * cols), 5));
    // Force exact extremes so the amax element maps to exactly +/-127.
    w.data()[0] = 1.7f;
    w.data()[1] = -1.7f;
    const QuantTensor qt = quantizeRowMajor(w, rows, cols);
    for (std::int64_t i = 0; i < qt.rows; ++i)
        for (std::int64_t j = 0; j < qt.nb * kQuantBlock; ++j) {
            const std::int8_t code =
                qt.q[static_cast<std::size_t>(i * qt.nb * kQuantBlock + j)];
            EXPECT_NE(code, -128) << "row " << i << " lane " << j;
            if (j >= qt.cols) {
                EXPECT_EQ(code, 0) << "padding lane " << j << " not zero";
            }
        }
}

TEST_F(QuantTest, EveryCompiledKernelSetMatchesScalarBitForBit)
{
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    for (const QuantGemmShape &s : kQuantShapes) {
        std::vector<std::int8_t> qa, qb;
        std::vector<float> sa, sb;
        std::int64_t nb = 0;

        // Quantization itself must agree bit for bit before the GEMM
        // comparison means anything.
        {
            ScopedKernelOverride force(*scalar);
            quantPair(s, qa, sa, qb, sb, nb);
        }
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            ScopedKernelOverride force(*set);
            std::vector<std::int8_t> qa2, qb2;
            std::vector<float> sa2, sb2;
            std::int64_t nb2 = 0;
            quantPair(s, qa2, sa2, qb2, sb2, nb2);
            ASSERT_EQ(nb2, nb);
            EXPECT_EQ(0, std::memcmp(qa2.data(), qa.data(), qa.size()))
                << set->name << " codes diverge at m=" << s.m
                << " k=" << s.k;
            EXPECT_EQ(0, std::memcmp(sa2.data(), sa.data(),
                                     sa.size() * sizeof(float)))
                << set->name << " scales diverge at m=" << s.m
                << " k=" << s.k;
        }

        const QuantTensor wb = packed(s.n, nb, qb, sb);
        std::vector<float> want;
        {
            ScopedKernelOverride force(*scalar);
            want = dotRows(s, nb, qa, sa, wb, 16);
        }
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            ScopedKernelOverride force(*set);
            // Whole panels, and one row per call: no output may depend
            // on the panel height the kernel tiles.
            for (const std::int64_t panel_rows : {std::int64_t{16},
                                                  std::int64_t{1}}) {
                const std::vector<float> got =
                    dotRows(s, nb, qa, sa, wb, panel_rows);
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         want.size() * sizeof(float)))
                    << set->name << " diverges from scalar at m=" << s.m
                    << " n=" << s.n << " k=" << s.k
                    << " panel rows=" << panel_rows;
            }
        }
    }
}

/** Activation pattern of panel row r, block b (see the KAT below). */
std::int8_t
katActivation(std::int64_t r, std::int64_t b, int j)
{
    switch ((r + b) % 4) {
      case 0: return 127;                                   // all +127
      case 1: return static_cast<std::int8_t>(j % 2 ? -127 : 127);
      case 2: return static_cast<std::int8_t>(              // one spike
          j == (r + 3 * b) % 32 ? ((r + b) % 8 < 4 ? 127 : -127) : 0);
      default: return 0;                                    // pad pixel
    }
}

/** Weight pattern of output channel co, block b. */
std::int8_t
katWeight(std::int64_t co, std::int64_t b, int j)
{
    switch ((co + 2 * b) % 3) {
      case 0: return -127;                                  // all -127
      case 1: return static_cast<std::int8_t>(j % 2 ? 127 : -127);
      default: return static_cast<std::int8_t>(             // one spike
          j == (5 * co + b) % 32 ? (co % 2 ? -127 : 127) : 0);
    }
}

TEST_F(QuantTest, PanelKernelKnownAnswersEveryKernelSet)
{
    // Hand-built blocks: all +127 against all -127 (the largest block
    // dot, 32·127·127), alternating signs, single-lane spikes, and
    // zero-scale pad pixels (code 0, scale 0). The expected outputs
    // come from int64 block sums and the same fmaf fold the slot pins,
    // so a kernel that miscomputes one block dot, drops a block,
    // reorders the fold or leaks a lane fails the memcmp. Each row is
    // read as every whole split into taps (one tap of nb blocks, ...,
    // nb taps of one block), each tap in its own allocation, so a
    // kernel that walks a row as one contiguous span or mixes up two
    // taps fails it too.
    for (const std::int64_t nb : {1, 2, 3, 4}) {
        for (const std::int64_t cout : {1, 3, 8, 16, 17, 33}) {
            std::vector<std::int8_t> wq(
                static_cast<std::size_t>(cout * nb * kQuantBlock));
            std::vector<float> ws(static_cast<std::size_t>(cout * nb));
            for (std::int64_t co = 0; co < cout; ++co)
                for (std::int64_t b = 0; b < nb; ++b) {
                    for (int j = 0; j < kQuantBlock; ++j)
                        wq[static_cast<std::size_t>(
                            (co * nb + b) * kQuantBlock + j)] =
                            katWeight(co, b, j);
                    ws[static_cast<std::size_t>(co * nb + b)] =
                        0.0078125f * static_cast<float>(1 + (co + b) % 5)
                        + 1e-4f * static_cast<float>(co);
                }
            const QuantTensor w = packed(cout, nb, wq, ws);
            for (std::int64_t rows = 1; rows <= 17; ++rows) {
                std::vector<std::int8_t> aq(
                    static_cast<std::size_t>(rows * nb * kQuantBlock));
                std::vector<float> as(static_cast<std::size_t>(rows * nb));
                for (std::int64_t r = 0; r < rows; ++r)
                    for (std::int64_t b = 0; b < nb; ++b) {
                        for (int j = 0; j < kQuantBlock; ++j)
                            aq[static_cast<std::size_t>(
                                (r * nb + b) * kQuantBlock + j)] =
                                katActivation(r, b, j);
                        as[static_cast<std::size_t>(r * nb + b)] =
                            (r + b) % 4 == 3
                                ? 0.0f
                                : 0.01f * static_cast<float>(1 + r + 2 * b);
                    }
                std::vector<float> want(static_cast<std::size_t>(rows * cout));
                for (std::int64_t r = 0; r < rows; ++r)
                    for (std::int64_t co = 0; co < cout; ++co) {
                        float acc = 0.0f;
                        for (std::int64_t b = 0; b < nb; ++b) {
                            std::int64_t d = 0;
                            for (int j = 0; j < kQuantBlock; ++j)
                                d += std::int64_t{katActivation(r, b, j)}
                                     * katWeight(co, b, j);
                            ASSERT_LE(std::abs(d), 32 * 127 * 127);
                            const float prod =
                                as[static_cast<std::size_t>(r * nb + b)]
                                * ws[static_cast<std::size_t>(co * nb + b)];
                            acc = std::fmaf(prod, static_cast<float>(d), acc);
                        }
                        want[static_cast<std::size_t>(r * cout + co)] = acc;
                    }
                for (std::int64_t taps = 1; taps <= nb; ++taps) {
                    if (nb % taps != 0)
                        continue;
                    const std::int64_t nbt = nb / taps;
                    std::vector<std::vector<std::int8_t>> tap_q;
                    std::vector<std::vector<float>> tap_s;
                    std::vector<const std::int8_t *> tq;
                    std::vector<const float *> ts;
                    for (std::int64_t r = 0; r < rows; ++r)
                        for (std::int64_t t = 0; t < taps; ++t) {
                            const std::int64_t b0 = r * nb + t * nbt;
                            tap_q.emplace_back(
                                aq.begin() + b0 * kQuantBlock,
                                aq.begin() + (b0 + nbt) * kQuantBlock);
                            tap_s.emplace_back(as.begin() + b0,
                                               as.begin() + b0 + nbt);
                        }
                    for (std::size_t i = 0; i < tap_q.size(); ++i) {
                        tq.push_back(tap_q[i].data());
                        ts.push_back(tap_s[i].data());
                    }
                    for (const KernelSet *set : compiledKernelSets()) {
                        if (!hostSupportsKernelSet(*set))
                            continue;
                        std::vector<float> got(want.size(), -1.0f);
                        set->dotQ8Panel(tq.data(), ts.data(), rows, taps,
                                        w.pack.view(), got.data(), cout);
                        EXPECT_EQ(0,
                                  std::memcmp(got.data(), want.data(),
                                              want.size() * sizeof(float)))
                            << set->name << " nb=" << nb << " taps=" << taps
                            << " cout=" << cout << " rows=" << rows;
                    }
                }
            }
        }
    }
}

TEST_F(QuantTest, QuantizeRowNonFinitePolicyEveryKernelSet)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = 1e-40f;
    ASSERT_LT(denorm, FLT_MIN);
    struct Case
    {
        const char *name;
        std::int64_t k;          //!< row length (a tail block when < 64)
        float base;              //!< finite lanes are base·(i - 16)
        std::vector<std::pair<int, float>> lanes; //!< overrides
    };
    const Case cases[] = {
        {"nan lane", 32, 0.01f, {{5, nan}}},
        {"nan lane 0", 32, 0.01f, {{0, nan}}},
        {"+inf lane", 32, 0.01f, {{7, inf}}},
        {"-inf lane", 32, 0.01f, {{7, -inf}}},
        {"nan and inf lanes", 64, 0.01f, {{3, nan}, {33, -inf}, {40, inf}}},
        {"tail nan and inf", 45, 0.01f, {{40, nan}, {44, -inf}}},
        {"tiny 1e-37", 32, 1e-37f / 16.0f, {}},
        {"tiny 1e-38", 32, 1e-38f / 16.0f, {}},
        {"denormal", 32, 0.0f, {{9, denorm}, {10, -denorm}}},
        {"tiny with inf", 32, 1e-38f / 16.0f, {{2, -inf}, {3, nan}}},
        {"flt_max lanes", 32, 0.01f, {{1, FLT_MAX}, {30, -FLT_MAX}}},
        {"all nan", 32, nan, {}},
    };
    for (const Case &c : cases) {
        std::vector<float> x(static_cast<std::size_t>(c.k));
        for (std::int64_t i = 0; i < c.k; ++i)
            x[static_cast<std::size_t>(i)] =
                c.base * static_cast<float>(i % 32 - 16);
        for (const auto &[lane, v] : c.lanes)
            x[static_cast<std::size_t>(lane)] = v;

        // The policy, written out: absmax over the finite lanes; a
        // block below 127/FLT_MAX gets scale 0 and finite codes 0; NaN
        // codes 0 and ±Inf ±127.
        const std::int64_t nb = quantBlocks(c.k);
        std::vector<std::int8_t> want_q(
            static_cast<std::size_t>(nb * kQuantBlock), 0);
        std::vector<float> want_s(static_cast<std::size_t>(nb));
        for (std::int64_t b = 0; b < nb; ++b) {
            const std::int64_t lo = b * kQuantBlock;
            const std::int64_t hi = std::min(c.k, lo + kQuantBlock);
            float amax = 0.0f;
            for (std::int64_t i = lo; i < hi; ++i)
                if (std::isfinite(x[static_cast<std::size_t>(i)]))
                    amax = std::max(amax,
                                    std::fabs(x[static_cast<std::size_t>(i)]));
            const bool normal = amax >= 127.0f / FLT_MAX;
            const float inv = normal ? 127.0f / amax : 0.0f;
            want_s[static_cast<std::size_t>(b)] = normal ? amax / 127.0f
                                                         : 0.0f;
            for (std::int64_t i = lo; i < hi; ++i) {
                const float v = x[static_cast<std::size_t>(i)];
                float code = 0.0f;
                if (std::isfinite(v))
                    code = std::nearbyintf(v * inv);
                else if (std::isinf(v))
                    code = v > 0.0f ? 127.0f : -127.0f;
                want_q[static_cast<std::size_t>(i)] =
                    static_cast<std::int8_t>(code);
            }
        }
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            std::vector<std::int8_t> q(want_q.size(), 99);
            std::vector<float> s(want_s.size(), -1.0f);
            set->quantizeRow(x.data(), c.k, q.data(), s.data());
            EXPECT_EQ(0, std::memcmp(q.data(), want_q.data(), q.size()))
                << set->name << " codes, case " << c.name;
            EXPECT_EQ(0, std::memcmp(s.data(), want_s.data(),
                                     s.size() * sizeof(float)))
                << set->name << " scales, case " << c.name;
            for (const std::int8_t code : q)
                EXPECT_NE(code, -128) << set->name << " case " << c.name;
        }
    }
}

TEST_F(QuantTest, QuantizedConvForwardTracksFp32)
{
    setThreadCount(2);
    Rng rng(17);
    Conv2d conv(8, 12, 3, 1, 1, true, rng);
    Tensor x = Tensor::fromData(
        {2, 8, 11, 9},
        randomVec(static_cast<std::size_t>(2) * 8 * 11 * 9, 23));
    const Tensor y32 = conv.forward(x, Mode::Eval);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    ASSERT_EQ(stats.size(), 1u);
    // ~4x smaller, less block padding (72 -> 96 cols) and scale rows.
    EXPECT_LT(stats[0].quantBytes, stats[0].fp32Bytes / 2);
    const Tensor y8 = conv.forward(x, Mode::Eval);
    ASSERT_EQ(y8.numel(), y32.numel());
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.15) << "element " << i;

    // A quantized conv's own forward IS the fp32 conv over its codes:
    // bit-identical to an fp32 conv whose weights are the dequantized
    // codes.
    Rng rng2(18);
    Conv2d ref(8, 12, 3, 1, 1, true, rng2);
    ref.weight().value = dequantizeRowMajor(*conv.quantTensors()[0]);
    const Tensor yref = ref.forward(x, Mode::Eval);
    ASSERT_EQ(yref.numel(), y8.numel());
    EXPECT_EQ(0, std::memcmp(y8.data(), yref.data(),
                             y8.numel() * sizeof(float)));
}

TEST_F(QuantTest, QuantizedLinearForwardTracksFp32)
{
    Rng rng(19);
    Linear fc(96, 10, rng);
    Tensor x = Tensor::fromData({4, 96},
                                randomVec(static_cast<std::size_t>(4) * 96,
                                          29));
    const Tensor y32 = fc.forward(x, Mode::Eval);
    std::vector<QuantStat> stats;
    fc.quantizeWeights(stats);
    planQuantized(fc);
    const Tensor y8 = fc.forward(x, Mode::Eval);
    ASSERT_EQ(y8.numel(), y32.numel());
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.12) << "element " << i;
}

TEST_F(QuantTest, QuantizedLayersRefuseTrainingMode)
{
    Rng rng(31);
    Conv2d conv(4, 6, 3, 1, 1, false, rng);
    Linear fc(32, 4, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    fc.quantizeWeights(stats);
    Tensor xc = Tensor::fromData(
        {1, 4, 8, 8}, randomVec(static_cast<std::size_t>(4) * 8 * 8, 37));
    Tensor xl = Tensor::fromData({2, 32},
                                 randomVec(static_cast<std::size_t>(2) * 32,
                                           38));
    EXPECT_THROW(conv.forward(xc, Mode::Train), CheckError);
    EXPECT_THROW(fc.forward(xl, Mode::Train), CheckError);
}

TEST_F(QuantTest, QuantizedCheckpointRoundTripsBitExactly)
{
    Rng rng(41);
    Conv2d conv(6, 10, 3, 1, 1, true, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    Tensor x = Tensor::fromData(
        {1, 6, 10, 10},
        randomVec(static_cast<std::size_t>(6) * 10 * 10, 43));
    const Tensor y_before = conv.forward(x, Mode::Eval);

    const std::string path =
        ::testing::TempDir() + "/leca_quant_conv.ckpt";
    saveQuantizedState(conv, path);
    Rng rng2(99); // different init: restore must overwrite everything
    Conv2d fresh(6, 10, 3, 1, 1, true, rng2);
    ASSERT_TRUE(loadQuantizedState(fresh, path));
    const Tensor y_after = fresh.forward(x, Mode::Eval);
    ASSERT_EQ(y_after.numel(), y_before.numel());
    EXPECT_EQ(0, std::memcmp(y_after.data(), y_before.data(),
                             y_before.numel() * sizeof(float)));
}

TEST_F(QuantTest, WarmQuantizedConvForwardAllocatesNoHeapBlocks)
{
    setThreadCount(1);
    Rng rng(47);
    Conv2d conv(8, 16, 3, 1, 1, true, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    Tensor x = Tensor::fromData(
        {2, 8, 16, 16},
        randomVec(static_cast<std::size_t>(2) * 8 * 16 * 16, 53));
    for (int i = 0; i < 3; ++i)
        conv.forward(x, Mode::Eval);
    const std::uint64_t warm = Arena::totalBlockAllocs();
    Tensor y0 = conv.forward(x, Mode::Eval);
    for (int i = 0; i < 10; ++i) {
        Tensor y = conv.forward(x, Mode::Eval);
        ASSERT_EQ(0, std::memcmp(y.data(), y0.data(),
                                 y.numel() * sizeof(float)));
    }
    EXPECT_EQ(Arena::totalBlockAllocs(), warm)
        << "steady-state quantized conv grew the arena";
}

TEST_F(QuantTest, WarmQuantizedForwardRunsUnderDenyAllocScope)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    Rng rng(59);
    Conv2d conv(8, 16, 3, 1, 1, true, rng);
    Linear fc(64, 8, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    fc.quantizeWeights(stats);
    planQuantized(fc);
    Tensor xc = Tensor::fromData(
        {2, 8, 12, 12},
        randomVec(static_cast<std::size_t>(2) * 8 * 12 * 12, 61));
    Tensor xl = Tensor::fromData({4, 64},
                                 randomVec(static_cast<std::size_t>(4) * 64,
                                           62));
    // Warm: fill the arenas and the recycled tensor pool the returned
    // outputs draw from.
    for (int i = 0; i < 3; ++i) {
        conv.forward(xc, Mode::Eval);
        fc.forward(xl, Mode::Eval);
    }
    // Deterministically warm every pool worker's arena: a worker that
    // slept through the warm-up would otherwise grow its cold arena on
    // its first dynamically-claimed chunk inside the deny window.
    warmPoolArenas();
    {
        DenyAllocScope deny;
        for (int i = 0; i < 5; ++i)
            conv.forward(xc, Mode::Eval);
        EXPECT_EQ(deny.violations(), 0u)
            << "warm quantized conv forward allocated on the heap";
    }
    {
        DenyAllocScope deny;
        for (int i = 0; i < 5; ++i)
            fc.forward(xl, Mode::Eval);
        EXPECT_EQ(deny.violations(), 0u)
            << "warm quantized linear forward allocated on the heap";
    }
}

TEST_F(QuantTest, KernelSetLookupAndOverride)
{
    EXPECT_EQ(kernelSetByName("no-such-isa"), nullptr);
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    EXPECT_TRUE(hostSupportsKernelSet(*scalar));
    ASSERT_GE(compiledKernelSets().size(), 1u);
    {
        ScopedKernelOverride force(*scalar);
        EXPECT_EQ(&activeKernels(), scalar);
    }
    for (const KernelSet *set : compiledKernelSets()) {
        EXPECT_NE(set->dotQ8Panel, nullptr) << set->name;
        EXPECT_NE(set->affineReluRow, nullptr) << set->name;
    }
    // Override restored on scope exit.
    EXPECT_TRUE(hostSupportsKernelSet(activeKernels()));
}

TEST_F(QuantTest, Avx2SetRequiresFma)
{
    // Every fp32 tile, int8 panel and epilogue of the avx2 set issues
    // VFMADD, so an AVX2 host without FMA must not run it.
    const KernelSet *avx2 = kernelSetByName("avx2");
    if (avx2 == nullptr)
        GTEST_SKIP() << "avx2 set not compiled in";
#if defined(__x86_64__)
    EXPECT_EQ(hostSupportsKernelSet(*avx2),
              __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"));
#else
    EXPECT_FALSE(hostSupportsKernelSet(*avx2));
#endif
}

} // namespace
} // namespace leca
