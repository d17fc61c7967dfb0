/**
 * @file
 * The blocked-kernel contract (DESIGN.md §8): gemmBlocked is
 * bit-identical to the retained naive reference at adversarial shapes
 * and at every thread count, the conv engine's passes match the
 * materialised-cols reference bit for bit, and warm steady-state kernels
 * perform zero heap block allocations (arena hook).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/conv.hh"
#include "tensor/isa.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
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

/** Bitwise equality of two float buffers (stricter than ==: ±0 differ). */
bool
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Restores the ambient thread count after each test. */
class KernelsTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

struct GemmShape
{
    std::int64_t m, n, k;
};

/**
 * Adversarial shapes: singletons, tails in every dimension relative to
 * the kMicroM x kMicroN tile, prime extents, shapes larger than one
 * k block (kBlockK) and one row chunk (kBlockM), and the k = 0 edge.
 */
const GemmShape kShapes[] = {
    {1, 1, 1},
    {1, 1, 5},
    {1, kMicroN, 3},
    {kMicroM, 1, 3},
    {kMicroM - 1, kMicroN - 1, 2},   // tails only
    {kMicroM + 1, kMicroN + 1, 2},   // one full tile plus tails
    {kMicroM / 2, kMicroN + 3, 9},   // the short-tile boundary
    {7, 13, 31},                     // primes
    {3, 61, 17},
    {2 * kMicroM, 2 * kMicroN, 8},   // exact tile multiples
    {5, 17, kBlockK + 44},           // k spans multiple k blocks
    {kBlockM + 22, 19, 7},           // m spans multiple row chunks
    {37, 3 * kMicroN + 5, 2 * kBlockK + 1},
    {6, 9, 0},                       // k = 0: C must be zeroed
};

void
runBothGemms(const GemmShape &s, bool trans_a, bool trans_b,
             bool accumulate, std::vector<float> &got,
             std::vector<float> &want)
{
    const std::size_t a_sz = static_cast<std::size_t>(s.m) *
                             (s.k > 0 ? s.k : 1);
    const std::size_t b_sz = static_cast<std::size_t>(s.n) *
                             (s.k > 0 ? s.k : 1);
    const std::vector<float> a = randomVec(a_sz, 17 * s.m + s.k + 1);
    const std::vector<float> b = randomVec(b_sz, 31 * s.n + s.k + 2);
    const std::vector<float> c0 =
        randomVec(static_cast<std::size_t>(s.m) * s.n, 7);
    const std::int64_t lda = trans_a ? s.m : s.k;
    const std::int64_t ldb = trans_b ? s.k : s.n;
    got = c0;
    want = c0;
    gemmBlocked(s.m, s.n, s.k, a.data(), lda, trans_a, b.data(), ldb,
                trans_b, got.data(), s.n, accumulate);
    gemmReference(s.m, s.n, s.k, a.data(), lda, trans_a, b.data(), ldb,
                  trans_b, want.data(), s.n, accumulate);
}

/** gemmBlocked against gemmReference over every shape and operand
 *  form, under whatever kernel set is active. */
void
expectBlockedMatchesReference(const char *set_name)
{
    for (const GemmShape &s : kShapes)
        for (bool trans_a : {false, true})
            for (bool trans_b : {false, true})
                for (bool accumulate : {false, true}) {
                    std::vector<float> got, want;
                    runBothGemms(s, trans_a, trans_b, accumulate, got, want);
                    EXPECT_TRUE(bitEqual(got, want))
                        << set_name << " m=" << s.m << " n=" << s.n
                        << " k=" << s.k << " trans_a=" << trans_a
                        << " trans_b=" << trans_b
                        << " accumulate=" << accumulate;
                }
}

TEST_F(KernelsTest, BlockedMatchesReferenceBitForBit)
{
    expectBlockedMatchesReference(activeKernels().name);
}

TEST_F(KernelsTest, EveryKernelSetMatchesReferenceBitForBit)
{
    // Each set's fp32 tile — full, short (at most kMicroM/2 live rows)
    // and edge — computes gemmReference's fmaf chains exactly.
    for (const KernelSet *set : compiledKernelSets()) {
        if (!hostSupportsKernelSet(*set))
            continue;
        ScopedKernelOverride force(*set);
        expectBlockedMatchesReference(set->name);
    }
}

TEST_F(KernelsTest, ThreadCountNeverChangesABit)
{
    const GemmShape shapes[] = {
        {kBlockM + 22, 19, 7}, {37, 53, kBlockK + 44}, {200, 64, 96}};
    for (const GemmShape &s : shapes) {
        setThreadCount(1);
        std::vector<float> base, want;
        runBothGemms(s, false, false, false, base, want);
        ASSERT_TRUE(bitEqual(base, want));
        for (int threads : {2, 4, 8}) {
            setThreadCount(threads);
            std::vector<float> got;
            runBothGemms(s, false, false, false, got, want);
            EXPECT_TRUE(bitEqual(got, base))
                << "m=" << s.m << " threads=" << threads;
        }
    }
}

TEST_F(KernelsTest, MatmulWrappersMatchReference)
{
    const int m = 19, n = 33, k = 27;
    const std::vector<float> av = randomVec(static_cast<std::size_t>(m) * k, 3);
    const std::vector<float> bv = randomVec(static_cast<std::size_t>(k) * n, 4);

    // matmul: A [m,k] * B [k,n].
    Tensor a = Tensor::fromData({m, k}, av);
    Tensor b = Tensor::fromData({k, n}, bv);
    Tensor c = matmul(a, b);
    std::vector<float> want(static_cast<std::size_t>(m) * n);
    gemmReference(m, n, k, av.data(), k, false, bv.data(), n, false,
                  want.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(float)));

    // matmulTransA: A [k,m] -> A^T * B.
    Tensor at = Tensor::fromData({k, m}, randomVec(av.size(), 5));
    c = matmulTransA(at, b);
    gemmReference(m, n, k, at.data(), m, true, bv.data(), n, false,
                  want.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(float)));

    // matmulTransB: B [n,k] -> A * B^T.
    Tensor bt = Tensor::fromData({n, k}, randomVec(bv.size(), 6));
    c = matmulTransB(a, bt);
    gemmReference(m, n, k, av.data(), k, false, bt.data(), k, true,
                  want.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(float)));
}

/**
 * The materialised-cols reference conv of one image: im2colRaw +
 * gemmReference, then the bias as a second pass.
 */
void
referenceConvImage(const float *x, int cin, int h, int w, const float *wmat,
                   const float *bias, int cout, int kh, int kw, int stride,
                   int pad, float *y)
{
    const int oh = convOutSize(h, kh, stride, pad);
    const int ow = convOutSize(w, kw, stride, pad);
    const std::int64_t kdim = static_cast<std::int64_t>(cin) * kh * kw;
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    std::vector<float> cols(static_cast<std::size_t>(kdim * ohow));
    im2colRaw(x, cin, h, w, kh, kw, stride, pad, cols.data());
    gemmReference(cout, ohow, kdim, wmat, kdim, false, cols.data(), ohow,
                  false, y, ohow, false);
    if (bias)
        for (int co = 0; co < cout; ++co)
            for (std::int64_t p = 0; p < ohow; ++p)
                y[co * ohow + p] += bias[co];
}

TEST_F(KernelsTest, PackedConvMatchesColsPathBitForBit)
{
    setThreadCount(4);
    // Odd spatial extents and stride/pad combinations so panel tails and
    // zero-padding rows are exercised, then the train_analog geometry.
    struct Case
    {
        int cin, h, w, cout, k, stride, pad;
        bool bias;
    };
    const Case cases[] = {
        {3, 9, 11, 5, 3, 1, 1, true},
        {1, 4, 4, 2, 2, 2, 0, true},
        {4, 16, 16, 8, 3, 2, 1, true},
        {2, 7, 5, 3, 5, 1, 2, true},
        {64, 48, 48, 3, 3, 1, 1, true},     // decoder head
        {3, 48, 48, 64, 3, 1, 1, false},    // decoder 3 -> 64, stem-like
        {32, 48, 48, 64, 3, 2, 1, false},   // res2.conv1
        {64, 24, 24, 64, 3, 1, 1, false},   // panels straddle output rows
        {128, 12, 12, 128, 3, 2, 1, false}, // res5.conv1
        {32, 48, 48, 64, 1, 2, 0, false},   // 1x1 stride-2 projection
        {3, 48, 48, 8, 2, 2, 0, false},     // encoder: k = stride = 2
    };
    for (const Case &cs : cases)
        for (int n : {1, 3}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " cin=" << cs.cin << " h=" << cs.h
                         << " w=" << cs.w << " cout=" << cs.cout
                         << " k=" << cs.k << " stride=" << cs.stride
                         << " pad=" << cs.pad << " bias=" << cs.bias);
            const std::size_t in_sz =
                static_cast<std::size_t>(cs.cin) * cs.h * cs.w;
            const Tensor x = Tensor::fromData(
                {n, cs.cin, cs.h, cs.w},
                randomVec(static_cast<std::size_t>(n) * in_sz, 11));
            const Tensor weight = Tensor::fromData(
                {cs.cout, cs.cin, cs.k, cs.k},
                randomVec(static_cast<std::size_t>(cs.cout) * cs.cin * cs.k
                              * cs.k,
                          12));
            const Tensor bias =
                cs.bias ? Tensor::fromData(
                              {cs.cout},
                              randomVec(static_cast<std::size_t>(cs.cout), 13))
                        : Tensor();
            const Tensor y = conv2d(x, weight, bias, cs.stride, cs.pad);
            const std::size_t out_sz =
                static_cast<std::size_t>(cs.cout) * y.size(2) * y.size(3);
            std::vector<float> want(static_cast<std::size_t>(n) * out_sz);
            for (int i = 0; i < n; ++i)
                referenceConvImage(x.data() + i * in_sz, cs.cin, cs.h, cs.w,
                                   weight.data(),
                                   cs.bias ? bias.data() : nullptr, cs.cout,
                                   cs.k, cs.k, cs.stride, cs.pad,
                                   want.data() + i * out_sz);
            ASSERT_EQ(y.numel(), want.size());
            EXPECT_EQ(0, std::memcmp(y.data(), want.data(),
                                     want.size() * sizeof(float)));
        }
}

TEST_F(KernelsTest, ConvPassesMatchReferenceOnRandomShapes)
{
    // All three passes at geometry the layers never build (kh != kw,
    // stride 3, pad 2, cout past one kBlockK) against im2colRaw +
    // gemmReference (+ col2imRaw), at 1 to 4 threads.
    Rng rng(2024);
    for (int it = 0; it < 60; ++it) {
        ConvGeometry g{};
        g.cin = rng.uniformInt(1, 12);
        g.cout = rng.uniformInt(1, it % 10 == 0 ? 300 : 40);
        g.kh = rng.uniformInt(1, 5);
        g.kw = rng.uniformInt(1, 5);
        g.stride = rng.uniformInt(1, 3);
        g.pad = rng.uniformInt(0, 2);
        g.h = rng.uniformInt(std::max(1, g.kh - 2 * g.pad), 30);
        g.w = rng.uniformInt(std::max(1, g.kw - 2 * g.pad), 30);
        const int n = rng.uniformInt(1, 3);
        const bool bias = rng.uniform() < 0.5;
        setThreadCount(rng.uniformInt(1, 4));
        SCOPED_TRACE(::testing::Message()
                     << "cin=" << g.cin << " " << g.h << "x" << g.w
                     << " cout=" << g.cout << " k=" << g.kh << "x" << g.kw
                     << " stride=" << g.stride << " pad=" << g.pad
                     << " n=" << n << " bias=" << bias);
        const std::int64_t kdim = g.kdim(), np = g.pixels();
        const std::int64_t ldw = kdim + (bias ? 1 : 0);
        const std::size_t in_sz = static_cast<std::size_t>(g.cin) * g.h * g.w;
        const std::size_t out_sz = static_cast<std::size_t>(g.cout * np);
        const std::vector<float> x = randomVec(n * in_sz, 3 * it + 1);
        const std::vector<float> w =
            randomVec(static_cast<std::size_t>(g.cout * kdim), 3 * it + 2);
        const std::vector<float> b =
            randomVec(static_cast<std::size_t>(g.cout), 3 * it + 3);
        const std::vector<float> dy = randomVec(n * out_sz, 3 * it + 4);
        std::vector<float> y(n * out_sz), dx(n * in_sz),
            dw(static_cast<std::size_t>(n * g.cout * ldw));
        convForward(g, n, x.data(), w.data(), bias ? b.data() : nullptr,
                    y.data());
        convBackwardWeights(g, n, x.data(), dy.data(), bias, dw.data());
        convBackwardData(g, n, dy.data(), w.data(), dx.data());

        std::vector<float> cols(static_cast<std::size_t>(kdim * np));
        std::vector<float> want(out_sz), dcols(cols.size());
        std::vector<float> want_dw(static_cast<std::size_t>(g.cout * ldw));
        std::vector<float> want_dx(in_sz);
        for (int i = 0; i < n; ++i) {
            const float *dyi = dy.data() + i * out_sz;
            referenceConvImage(x.data() + i * in_sz, g.cin, g.h, g.w,
                               w.data(), bias ? b.data() : nullptr, g.cout,
                               g.kh, g.kw, g.stride, g.pad, want.data());
            EXPECT_EQ(0, std::memcmp(y.data() + i * out_sz, want.data(),
                                     out_sz * sizeof(float)));
            im2colRaw(x.data() + i * in_sz, g.cin, g.h, g.w, g.kh, g.kw,
                      g.stride, g.pad, cols.data());
            gemmReference(g.cout, kdim, np, dyi, np, false, cols.data(), np,
                          true, want_dw.data(), ldw, false);
            if (bias)
                for (int co = 0; co < g.cout; ++co) {
                    float acc = 0.0f;
                    for (std::int64_t p = 0; p < np; ++p)
                        acc += dyi[co * np + p];
                    want_dw[static_cast<std::size_t>(co * ldw + kdim)] = acc;
                }
            EXPECT_EQ(0, std::memcmp(dw.data() + i * g.cout * ldw,
                                     want_dw.data(),
                                     want_dw.size() * sizeof(float)));
            gemmReference(kdim, np, g.cout, w.data(), kdim, true, dyi, np,
                          false, dcols.data(), np, false);
            std::fill(want_dx.begin(), want_dx.end(), 0.0f);
            col2imRaw(dcols.data(), g.cin, g.h, g.w, g.kh, g.kw, g.stride,
                      g.pad, want_dx.data());
            EXPECT_EQ(0, std::memcmp(dx.data() + i * in_sz, want_dx.data(),
                                     in_sz * sizeof(float)));
        }
    }
}

TEST_F(KernelsTest, ConvRejectsKernelLargerThanPaddedInput)
{
    // With stride 2, oh() truncates (2 - 3) / 2 + 1 to 1, so only the
    // explicit fit rule stops these windows reading past the plane.
    Rng rng(8);
    for (const ConvGeometry g : {ConvGeometry{1, 2, 2, 1, 3, 3, 2, 0},
                                 ConvGeometry{2, 5, 2, 3, 3, 3, 2, 0},
                                 ConvGeometry{2, 2, 5, 3, 3, 3, 2, 0}}) {
        SCOPED_TRACE(::testing::Message() << g.h << "x" << g.w);
        ASSERT_TRUE(g.oh() > 0 && g.ow() > 0);
        const std::vector<float> x(static_cast<std::size_t>(g.cin) * g.h * g.w);
        const std::vector<float> w(static_cast<std::size_t>(g.cout * g.kdim()));
        std::vector<float> out(64);
        EXPECT_THROW(convForward(g, 1, x.data(), w.data(), nullptr, out.data()),
                     CheckError);
        EXPECT_THROW(convBackwardWeights(g, 1, x.data(), out.data(), true,
                                         out.data()),
                     CheckError);
        EXPECT_THROW(convBackwardData(g, 1, out.data(), w.data(), out.data()),
                     CheckError);

        const Tensor xt = Tensor::fromData({1, g.cin, g.h, g.w}, x);
        EXPECT_THROW(conv2d(xt, Tensor({g.cout, g.cin, 3, 3}), Tensor(), 2, 0),
                     CheckError);
        Conv2d conv(g.cin, g.cout, 3, 2, 0, true, rng);
        EXPECT_THROW(conv.forward(xt, Mode::Train), CheckError);
        EXPECT_THROW(conv.forward(xt, Mode::Eval), CheckError);
    }
}

TEST_F(KernelsTest, ArenaScopeRewindsAndTracksHighWater)
{
    Arena &arena = Arena::local();
    {
        Arena::Scope outer;
        const std::size_t live0 = arena.liveFloats();
        float *p = arena.alloc(100);
        ASSERT_NE(p, nullptr);
        EXPECT_GE(arena.liveFloats(), live0 + 100);
        {
            Arena::Scope inner;
            arena.alloc(200);
            EXPECT_GE(arena.liveFloats(), live0 + 300);
        }
        // Inner scope rewound; outer allocation still live.
        EXPECT_GE(arena.liveFloats(), live0 + 100);
        EXPECT_LT(arena.liveFloats(), live0 + 300);
        EXPECT_GE(arena.highWaterFloats(), live0 + 300);
        // Memory is writable through the whole outer scope.
        for (int i = 0; i < 100; ++i)
            p[i] = static_cast<float>(i);
        EXPECT_EQ(p[99], 99.0f);
    }
    EXPECT_EQ(arena.liveFloats(), 0u);
}

TEST_F(KernelsTest, ArenaAllocationsAreVectorAligned)
{
    Arena::Scope scope;
    for (std::size_t n : {1u, 3u, 17u, 100u}) {
        float *p = Arena::local().alloc(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u)
            << "n=" << n;
    }
}

TEST_F(KernelsTest, WarmConvForwardAllocatesNoHeapBlocks)
{
    setThreadCount(1);
    Rng rng(42);
    Conv2d conv(8, 16, 3, 1, 1, true, rng);
    Tensor x = Tensor::fromData(
        {2, 8, 24, 24},
        randomVec(static_cast<std::size_t>(2) * 8 * 24 * 24, 21));

    // Warm-up: grow the arena to its high-water capacity.
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
        << "steady-state conv forward touched the heap for kernel scratch";
}

TEST_F(KernelsTest, WarmGemmAllocatesNoHeapBlocks)
{
    setThreadCount(1);
    const int m = 150, n = 96, k = 300;
    const std::vector<float> a = randomVec(static_cast<std::size_t>(m) * k, 1);
    const std::vector<float> b = randomVec(static_cast<std::size_t>(k) * n, 2);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < 3; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    const std::uint64_t warm = Arena::totalBlockAllocs();
    for (int i = 0; i < 10; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    EXPECT_EQ(Arena::totalBlockAllocs(), warm);
}

TEST_F(KernelsTest, WarmGemmRunsUnderDenyAllocScope)
{
    // Stronger than the arena-block check above: with the counting
    // operator-new hooks compiled in, a warm blocked GEMM must perform
    // literally zero heap allocations on any participating thread.
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    const int m = 150, n = 96, k = 300;
    const std::vector<float> a = randomVec(static_cast<std::size_t>(m) * k, 1);
    const std::vector<float> b = randomVec(static_cast<std::size_t>(k) * n, 2);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < 3; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    // Chunks are claimed dynamically, so the warm-up alone cannot
    // guarantee a worker that slept through it has a warm arena; the
    // barrier grows every pool thread's arena deterministically.
    warmPoolArenas();
    DenyAllocScope deny;
    for (int i = 0; i < 10; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    EXPECT_EQ(deny.violations(), 0u)
        << "warm blocked GEMM allocated on the heap";
}

TEST_F(KernelsTest, Im2colRoundTripAdjoint)
{
    // <cols, im2col(x)> == <col2im(cols), x> pins col2imRaw as the exact
    // adjoint of im2colRaw (up to float rounding of the two dot
    // products, computed here in double).
    const int c = 3, h = 7, w = 6, k = 3, stride = 2, pad = 1;
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(w, k, stride, pad);
    const std::size_t x_sz = static_cast<std::size_t>(c) * h * w;
    const std::size_t cols_sz =
        static_cast<std::size_t>(c) * k * k * oh * ow;
    const std::vector<float> x = randomVec(x_sz, 31);
    const std::vector<float> u = randomVec(cols_sz, 32);

    std::vector<float> cols(cols_sz);
    im2colRaw(x.data(), c, h, w, k, k, stride, pad, cols.data());
    std::vector<float> folded(x_sz, 0.0f);
    col2imRaw(u.data(), c, h, w, k, k, stride, pad, folded.data());

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cols_sz; ++i)
        lhs += static_cast<double>(u[i]) * cols[i];
    for (std::size_t i = 0; i < x_sz; ++i)
        rhs += static_cast<double>(folded[i]) * x[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

} // namespace
} // namespace leca
