/**
 * @file
 * The int8 block-quantization contract (DESIGN.md §12): the code
 * format's invariants (range, padding, round-trip error), bit-exact
 * agreement of every compiled kernel set with the scalar reference at
 * adversarial shapes, bit-exact agreement of the pre-biased VNNI dot
 * with the plain one, closeness of quantized layer forwards to fp32
 * (the resident conv's thread invariance and fp32 tracking live in
 * test_resident.cc), the eval-only restriction, the
 * quantized checkpoint round-trip, and heap-silence of the warm
 * quantized serving path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "data/serialize.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
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
 * Adversarial shapes for the quantized dot (m A rows, each against n B
 * rows): single rows/columns on both sides, k below / at / just past
 * one 32-element block (nb = 1 and odd nb exercise the kernels'
 * odd-tail path), and n straddling the 4- and 8-row blocking of the
 * VNNI kernel.
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

/** C (m×n) = Aq · Bqᵀ, one A row at a time through the active dotQ8Row. */
std::vector<float>
dotRows(const QuantGemmShape &s, std::int64_t nb,
        const std::vector<std::int8_t> &qa, const std::vector<float> &sa,
        const std::vector<std::int8_t> &qb, const std::vector<float> &sb)
{
    const simd::DotQ8RowFn dot = activeKernels().dotQ8Row;
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), -1.0f);
    for (std::int64_t i = 0; i < s.m; ++i)
        dot(qa.data() + i * nb * kQuantBlock, sa.data() + i * nb, qb.data(),
            sb.data(), nb, s.n, c.data() + i * s.n);
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

        std::vector<float> want;
        {
            ScopedKernelOverride force(*scalar);
            want = dotRows(s, nb, qa, sa, qb, sb);
        }
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            ScopedKernelOverride force(*set);
            const std::vector<float> got = dotRows(s, nb, qa, sa, qb, sb);
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                     want.size() * sizeof(float)))
                << set->name << " diverges from scalar at m=" << s.m
                << " n=" << s.n << " k=" << s.k;
        }
    }
}

TEST_F(QuantTest, PreBiasedDotMatchesPlainDotBitForBit)
{
    const simd::DotQ8RowFn dot = activeKernels().dotQ8Row;
    const simd::DotQ8RowUBFn dot_ub = activeKernels().dotQ8RowUB;
    if (dot_ub == nullptr)
        GTEST_SKIP() << "active kernel set has no pre-biased dot";
    for (const QuantGemmShape &s : kQuantShapes) {
        std::vector<std::int8_t> qa, qb;
        std::vector<float> sa, sb;
        std::int64_t nb = 0;
        quantPair(s, qa, sa, qb, sb, nb);
        std::vector<std::uint8_t> ub(qb.size());
        for (std::size_t i = 0; i < qb.size(); ++i)
            ub[i] = static_cast<std::uint8_t>(
                static_cast<std::uint8_t>(qb[i]) ^ 0x80u);
        std::vector<float> plain(static_cast<std::size_t>(s.n));
        std::vector<float> biased(static_cast<std::size_t>(s.n), -1.0f);
        dot(qa.data(), sa.data(), qb.data(), sb.data(), nb, s.n,
            plain.data());
        dot_ub(qa.data(), sa.data(), ub.data(), sb.data(), nb, s.n,
               biased.data());
        EXPECT_EQ(0, std::memcmp(biased.data(), plain.data(),
                                 plain.size() * sizeof(float)))
            << "n=" << s.n << " k=" << s.k;
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
        EXPECT_EQ(activeKernels().dotQ8RowUB, nullptr)
            << "scalar set must not advertise a pre-biased dot";
    }
    // Override restored on scope exit.
    EXPECT_TRUE(hostSupportsKernelSet(activeKernels()));
}

} // namespace
} // namespace leca
