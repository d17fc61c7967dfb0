/**
 * @file
 * The resident int8 activation contract (DESIGN.md §13): per-pixel
 * activation quantization round-trips and stays RTNE-deterministic,
 * the resident conv is bit-identical across thread counts and across
 * every compiled kernel set, global pooling straight over codes
 * matches pooling the dequantized planes bit for bit, the Sequential planner
 * places precision boundaries exactly where the step kinds change,
 * mixed quantized/fp32 chains still track the fp32 network, a
 * quantize()d pipeline and a loadQuantized() restore of it infer
 * identically, and the warm planned forward is heap-silent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/decoder.hh"
#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "nn/sequential.hh"
#include "tensor/isa.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/alloc_guard.hh"
#include "util/arena.hh"
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
class ResidentTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

struct ResidentBuffers
{
    std::vector<std::int8_t> q;
    std::vector<float> scales;
    QuantActivation act;
};

ResidentBuffers
makeResident(const Tensor &x)
{
    ResidentBuffers rb;
    rb.act.n = x.size(0);
    rb.act.c = x.size(1);
    rb.act.h = x.size(2);
    rb.act.w = x.size(3);
    const std::int64_t rows = rb.act.rows();
    rb.q.resize(static_cast<std::size_t>(rows * quantPadded(rb.act.c)));
    rb.scales.resize(static_cast<std::size_t>(rows * rb.act.nbc()));
    quantizeActivationNchw(x.data(), rb.act.n, rb.act.c, rb.act.h,
                           rb.act.w, rb.q.data(), rb.scales.data());
    rb.act.q = rb.q.data();
    rb.act.scales = rb.scales.data();
    return rb;
}

TEST_F(ResidentTest, ActivationQuantizationRoundTripsWithinBlockScale)
{
    Tensor x = Tensor::fromData(
        {2, 40, 6, 5},
        randomVec(static_cast<std::size_t>(2) * 40 * 6 * 5, 101));
    const ResidentBuffers rb = makeResident(x);
    Tensor back({2, 40, 6, 5});
    dequantizeActivationNchw(rb.act, back.data());
    for (std::size_t i = 0; i < x.numel(); ++i)
        EXPECT_NEAR(back[i], x[i], 0.5f / 127.0f + 1e-7f)
            << "element " << i;
    // Padded lanes of every pixel row must be zero codes.
    const std::int64_t cpad = quantPadded(40);
    for (std::int64_t p = 0; p < rb.act.rows(); ++p)
        for (std::int64_t j = 40; j < cpad; ++j)
            ASSERT_EQ(rb.q[static_cast<std::size_t>(p * cpad + j)], 0)
                << "pixel " << p << " padding lane " << j;
}

TEST_F(ResidentTest, ActivationQuantizationBitIdenticalAcrossThreadCounts)
{
    Tensor x = Tensor::fromData(
        {3, 24, 9, 7},
        randomVec(static_cast<std::size_t>(3) * 24 * 9 * 7, 103));
    setThreadCount(1);
    const ResidentBuffers base = makeResident(x);
    for (int threads : {2, 4, 8}) {
        setThreadCount(threads);
        const ResidentBuffers got = makeResident(x);
        EXPECT_EQ(0, std::memcmp(got.q.data(), base.q.data(),
                                 base.q.size()))
            << "codes diverge at threads=" << threads;
        EXPECT_EQ(0,
                  std::memcmp(got.scales.data(), base.scales.data(),
                              base.scales.size() * sizeof(float)))
            << "scales diverge at threads=" << threads;
    }
}

/** Runs the resident conv with a quantized exit into fresh buffers. */
void
runResidentConv(const QuantActivation &in, const QuantTensor &wq_hwc,
                int k, int stride, int pad, const ResidentEpilogue &epi,
                std::vector<std::int8_t> &oq, std::vector<float> &os)
{
    const int oh = (in.h + 2 * pad - k) / stride + 1;
    const int ow = (in.w + 2 * pad - k) / stride + 1;
    const std::int64_t rows =
        static_cast<std::int64_t>(in.n) * oh * ow;
    const std::int64_t cout = wq_hwc.rows;
    oq.assign(static_cast<std::size_t>(rows * quantPadded(
                  static_cast<int>(cout))),
              0);
    os.assign(static_cast<std::size_t>(rows * quantBlocks(cout)), 0.0f);
    const ConvGeometry g{in.c, in.h, in.w, static_cast<int>(cout), k, k,
                         stride, pad};
    convForwardResident(in, g, wq_hwc, epi, oq.data(), os.data(), nullptr,
                        nullptr);
}

TEST_F(ResidentTest, ResidentConvTracksFp32Conv)
{
    Rng rng(107);
    const int cin = 24, cout = 18, k = 3, stride = 2, pad = 1;
    Conv2d conv(cin, cout, k, stride, pad, true, rng);
    Tensor x = Tensor::fromData(
        {2, cin, 11, 9},
        randomVec(static_cast<std::size_t>(2) * cin * 11 * 9, 109));
    const Tensor y32 = conv.forward(x, Mode::Eval);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    conv.prepareResident();

    const ResidentBuffers rb = makeResident(x);
    Tensor y8({2, cout, y32.size(2), y32.size(3)});
    // Bias folds through the affine epilogue as fmaf(1, y, b).
    std::vector<float> ones(static_cast<std::size_t>(cout), 1.0f);
    const ResidentEpilogue bias_epi{ones.data(), conv.bias().value.data(),
                                    false};
    convForwardResident(rb.act, conv.geometry(rb.act.h, rb.act.w),
                        conv.qweightHwc(), bias_epi, nullptr, nullptr, nullptr,
                        y8.data());
    ASSERT_EQ(y8.numel(), y32.numel());
    // Both weights AND activations carry code error here, so the band
    // is wider than a quantized conv's own forward needs (fp32 over the
    // weight codes; test_quant.cc).
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.25) << "element " << i;

    // A 1x1 conv is a plain int8 GEMM: 24 pixel rows of 96 channels
    // (three blocks) against 40 weight rows, both operands uniform in
    // [-1, 1], so each output is a 96-term dot. Both sides carry ~0.4%
    // per-element code error; the dot stays within a small band.
    Conv2d gemm(96, 40, 1, 1, 0, false, rng);
    const std::vector<float> w = randomVec(96 * 40, 8);
    std::copy(w.begin(), w.end(), gemm.weight().value.data());
    Tensor a = Tensor::fromData({2, 96, 3, 4},
                                randomVec(2 * 96 * 3 * 4, 7));
    const Tensor g32 = gemm.forward(a, Mode::Eval);
    gemm.quantizeWeights(stats);
    gemm.prepareResident();
    const ResidentBuffers ra = makeResident(a);
    Tensor g8({2, 40, 3, 4});
    convForwardResident(ra.act, gemm.geometry(ra.act.h, ra.act.w),
                        gemm.qweightHwc(), ResidentEpilogue{}, nullptr,
                        nullptr, nullptr, g8.data());
    for (std::size_t i = 0; i < g8.numel(); ++i)
        EXPECT_NEAR(g8[i], g32[i], 0.08) << "1x1 element " << i;
}

TEST_F(ResidentTest, ResidentConvBitIdenticalAcrossThreadCounts)
{
    // A 3x3 conv, and a 1x1 one (a plain int8 GEMM) whose 33 pixel rows
    // straddle two 16-row panels and whose 160 channels give an odd
    // block count.
    struct Case
    {
        int cin, cout, k, pad, n, h, w;
    };
    const Case cases[] = {{32, 20, 3, 1, 2, 13, 11},
                          {160, 57, 1, 0, 1, 3, 11}};
    Rng rng(113);
    std::uint64_t seed = 127;
    for (const Case &c : cases) {
        Conv2d conv(c.cin, c.cout, c.k, 1, c.pad, false, rng);
        std::vector<QuantStat> stats;
        conv.quantizeWeights(stats);
        conv.prepareResident();
        Tensor x = Tensor::fromData(
            {c.n, c.cin, c.h, c.w},
            randomVec(static_cast<std::size_t>(c.n) * c.cin * c.h * c.w,
                      seed++));
        const ResidentBuffers rb = makeResident(x);
        const ResidentEpilogue epi{nullptr, nullptr, true};

        setThreadCount(1);
        std::vector<std::int8_t> base_q;
        std::vector<float> base_s;
        runResidentConv(rb.act, conv.qweightHwc(), c.k, 1, c.pad, epi,
                        base_q, base_s);
        for (int threads : {2, 4, 8}) {
            setThreadCount(threads);
            std::vector<std::int8_t> got_q;
            std::vector<float> got_s;
            runResidentConv(rb.act, conv.qweightHwc(), c.k, 1, c.pad, epi,
                            got_q, got_s);
            EXPECT_EQ(0, std::memcmp(got_q.data(), base_q.data(),
                                     base_q.size()))
                << "requantized codes diverge at k=" << c.k
                << " threads=" << threads;
            EXPECT_EQ(0, std::memcmp(got_s.data(), base_s.data(),
                                     base_s.size() * sizeof(float)))
                << "requantized scales diverge at k=" << c.k
                << " threads=" << threads;
        }
    }
}

TEST_F(ResidentTest, ResidentConvEveryCompiledKernelSetMatchesScalar)
{
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    Rng rng(131);
    const int cin = 40, cout = 23, k = 3; // padded tail on both sides
    Conv2d conv(cin, cout, k, 1, 1, false, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    Tensor x = Tensor::fromData(
        {1, cin, 10, 9},
        randomVec(static_cast<std::size_t>(cin) * 10 * 9, 137));
    const ResidentEpilogue epi{nullptr, nullptr, true};

    // Both exits: the requantized codes, and the fp32 planes, which
    // carry every bit of the int8 panel's output (a requantization can
    // round two slightly different rows to the same codes).
    std::vector<std::int8_t> want_q;
    std::vector<float> want_s;
    std::vector<float> want_f(static_cast<std::size_t>(cout) * 10 * 9);
    {
        ScopedKernelOverride force(*scalar);
        conv.prepareResident();
        const ResidentBuffers rb = makeResident(x);
        runResidentConv(rb.act, conv.qweightHwc(), k, 1, 1, epi, want_q,
                        want_s);
        convForwardResident(rb.act, conv.geometry(10, 9), conv.qweightHwc(),
                            ResidentEpilogue{}, nullptr, nullptr, nullptr,
                            want_f.data());
    }
    for (const KernelSet *set : compiledKernelSets()) {
        if (!hostSupportsKernelSet(*set))
            continue;
        ScopedKernelOverride force(*set);
        // Re-plan under the override like a real plan would; the pack
        // is the same bytes for every set.
        conv.prepareResident();
        const ResidentBuffers rb = makeResident(x);
        std::vector<std::int8_t> got_q;
        std::vector<float> got_s;
        runResidentConv(rb.act, conv.qweightHwc(), k, 1, 1, epi, got_q,
                        got_s);
        EXPECT_EQ(0,
                  std::memcmp(got_q.data(), want_q.data(), want_q.size()))
            << set->name << " resident codes diverge from scalar";
        EXPECT_EQ(0,
                  std::memcmp(got_s.data(), want_s.data(),
                              want_s.size() * sizeof(float)))
            << set->name << " resident scales diverge from scalar";
        std::vector<float> got_f(want_f.size(), -1.0f);
        convForwardResident(rb.act, conv.geometry(10, 9), conv.qweightHwc(),
                            ResidentEpilogue{}, nullptr, nullptr, nullptr,
                            got_f.data());
        EXPECT_EQ(0, std::memcmp(got_f.data(), want_f.data(),
                                 want_f.size() * sizeof(float)))
            << set->name << " resident fp32 exit diverges from scalar";
    }
}

/**
 * The resident conv as it ran before it read patches in place, kept as
 * a test reference: every patch row is gathered into a contiguous
 * panel row — an interior kernel row as one span of kw pixels, a
 * border pixel alone, a padding pixel as code 0 with scale 0 — and the
 * panel runs each gathered row as one tap of all its blocks. Writes
 * the epilogued fp32 pixel-major rows (n·oh·ow × cout); the exits are
 * derived from them by exitsFromRows.
 */
std::vector<float>
gatherConvReference(const QuantActivation &in, const ConvGeometry &g,
                    const QuantTensor &wq_hwc, const ResidentEpilogue &epi)
{
    const std::int64_t nbc = in.nbc();
    const std::int64_t cpad = nbc * kQuantBlock;
    const std::int64_t taps = static_cast<std::int64_t>(g.kh) * g.kw;
    const std::int64_t row_blocks = taps * nbc;
    const std::int64_t cout = g.cout;
    const std::int64_t ohow = static_cast<std::int64_t>(g.oh()) * g.ow();
    const std::int64_t total = in.n * ohow;
    const std::int64_t hw = static_cast<std::int64_t>(in.h) * in.w;
    std::vector<std::int8_t> pq(static_cast<std::size_t>(total * taps * cpad),
                                0);
    std::vector<float> ps(static_cast<std::size_t>(total * row_blocks), 0.0f);
    for (std::int64_t p = 0; p < total; ++p) {
        const std::int64_t img = p / ohow;
        const int oy = static_cast<int>((p % ohow) / g.ow());
        const int ox = static_cast<int>(p % g.ow());
        const int y0 = oy * g.stride - g.pad;
        const int x0 = ox * g.stride - g.pad;
        std::int8_t *dq = pq.data() + p * taps * cpad;
        float *ds = ps.data() + p * row_blocks;
        for (int ky = 0; ky < g.kh; ++ky) {
            const int iy = y0 + ky;
            const bool row_ok = iy >= 0 && iy < in.h;
            if (row_ok && x0 >= 0 && x0 + g.kw <= in.w) {
                const std::int64_t src = img * hw + iy * in.w + x0;
                std::memcpy(dq + ky * g.kw * cpad, in.q + src * cpad,
                            static_cast<std::size_t>(g.kw * cpad));
                std::memcpy(ds + ky * g.kw * nbc, in.scales + src * nbc,
                            static_cast<std::size_t>(g.kw * nbc)
                                * sizeof(float));
                continue;
            }
            for (int kx = 0; kx < g.kw; ++kx) {
                const int ix = x0 + kx;
                if (!row_ok || ix < 0 || ix >= in.w)
                    continue; // padding: the zeros already there
                const std::int64_t src = img * hw + iy * in.w + ix;
                const int kpos = ky * g.kw + kx;
                std::memcpy(dq + kpos * cpad, in.q + src * cpad,
                            static_cast<std::size_t>(cpad));
                std::memcpy(ds + kpos * nbc, in.scales + src * nbc,
                            static_cast<std::size_t>(nbc) * sizeof(float));
            }
        }
    }
    std::vector<const std::int8_t *> tq;
    std::vector<const float *> ts;
    for (std::int64_t p = 0; p < total; ++p) {
        tq.push_back(pq.data() + p * taps * cpad);
        ts.push_back(ps.data() + p * row_blocks);
    }
    std::vector<float> rows(static_cast<std::size_t>(total * cout));
    const KernelSet &k = activeKernels();
    for (std::int64_t p = 0; p < total; p += 16)
        k.dotQ8Panel(tq.data() + p, ts.data() + p,
                     std::min<std::int64_t>(16, total - p), 1,
                     wq_hwc.pack.view(), rows.data() + p * cout, cout);
    for (std::int64_t p = 0; p < total; ++p) {
        float *row = rows.data() + p * cout;
        if (epi.a != nullptr)
            k.affineReluRow(row, epi.a, epi.b, cout, epi.relu, row);
        else if (epi.relu)
            for (std::int64_t ch = 0; ch < cout; ++ch)
                row[ch] = row[ch] > 0.0f ? row[ch] : 0.0f;
    }
    return rows;
}

/** The three resident-conv exits, computed from fp32 pixel rows. */
struct ResidentExits
{
    std::vector<std::int8_t> q;
    std::vector<float> s;
    std::vector<float> rows;
    std::vector<float> planes;
};

ResidentExits
exitsFromRows(const std::vector<float> &rows, int n, int cout, int oh,
              int ow)
{
    ResidentExits e;
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t total = n * ohow;
    e.q.assign(static_cast<std::size_t>(total * quantPadded(cout)), 0);
    e.s.assign(static_cast<std::size_t>(total * quantBlocks(cout)), 0.0f);
    quantizeRowsInto(rows.data(), total, cout, e.q.data(), e.s.data());
    e.rows = rows;
    e.planes.assign(rows.size(), 0.0f);
    for (std::int64_t p = 0; p < total; ++p)
        for (int co = 0; co < cout; ++co)
            e.planes[static_cast<std::size_t>(
                ((p / ohow) * cout + co) * ohow + p % ohow)] =
                rows[static_cast<std::size_t>(p * cout + co)];
    return e;
}

/** convForwardResident through each of its three exits. */
ResidentExits
inPlaceExits(const QuantActivation &in, const ConvGeometry &g,
             const QuantTensor &wq_hwc, const ResidentEpilogue &epi)
{
    ResidentExits e;
    const std::int64_t total =
        static_cast<std::int64_t>(in.n) * g.oh() * g.ow();
    e.q.assign(static_cast<std::size_t>(total * quantPadded(g.cout)), 0);
    e.s.assign(static_cast<std::size_t>(total * quantBlocks(g.cout)), 0.0f);
    e.rows.assign(static_cast<std::size_t>(total * g.cout), -1.0f);
    e.planes.assign(e.rows.size(), -1.0f);
    convForwardResident(in, g, wq_hwc, epi, e.q.data(), e.s.data(), nullptr,
                        nullptr);
    convForwardResident(in, g, wq_hwc, epi, nullptr, nullptr, e.rows.data(),
                        nullptr);
    convForwardResident(in, g, wq_hwc, epi, nullptr, nullptr, nullptr,
                        e.planes.data());
    return e;
}

/** Empty when @p got is bit-identical to @p want, else what differs. */
std::string
exitDiff(const ResidentExits &got, const ResidentExits &want)
{
    std::string diff;
    const auto same = [](const auto &a, const auto &b) {
        return a.size() == b.size()
               && std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(a[0]))
                      == 0;
    };
    if (!same(got.q, want.q))
        diff += " codes";
    if (!same(got.s, want.s))
        diff += " scales";
    if (!same(got.rows, want.rows))
        diff += " rows";
    if (!same(got.planes, want.planes))
        diff += " planes";
    return diff;
}

TEST_F(ResidentTest, InPlaceConvMatchesGatherReferenceEveryKernelSet)
{
    // Odd extents, both strides and pads, 1x1 and 3x3 kernels (a 1x1
    // conv with pad 1 reads a ring of pure padding taps), one to four
    // channel blocks against narrow, odd and two-group outputs, and
    // batches of 1, 3 and 8 images. The gather reference runs on the
    // scalar set; every host-runnable set must reproduce it bit for bit
    // through every exit.
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    struct Case
    {
        int h, w, stride, pad, k, cin, cout, n;
    };
    std::vector<Case> cases;
    const int batches[] = {1, 3, 8};
    for (const auto &hw : {std::pair{7, 5}, std::pair{9, 9}})
        for (const int stride : {1, 2})
            for (const int pad : {0, 1})
                for (const int k : {1, 3})
                    for (const int cin : {16, 48, 96, 128})
                        for (const int cout : {3, 17, 64})
                            cases.push_back({hw.first, hw.second, stride, pad,
                                             k, cin, cout,
                                             batches[cases.size() % 3]});
    Rng rng(197);
    std::uint64_t seed = 199;
    for (const Case &c : cases) {
        Conv2d conv(c.cin, c.cout, c.k, c.stride, c.pad, false, rng);
        std::vector<QuantStat> stats;
        conv.quantizeWeights(stats);
        conv.prepareResident();
        Tensor x = Tensor::fromData(
            {c.n, c.cin, c.h, c.w},
            randomVec(static_cast<std::size_t>(c.n) * c.cin * c.h * c.w,
                      seed++));
        const ResidentBuffers rb = makeResident(x);
        const std::vector<float> ea =
            randomVec(static_cast<std::size_t>(c.cout), seed++);
        const std::vector<float> eb =
            randomVec(static_cast<std::size_t>(c.cout), seed++);
        const ResidentEpilogue epi{ea.data(), eb.data(), seed % 2 == 0};
        const ConvGeometry g = conv.geometry(c.h, c.w);
        ResidentExits want;
        {
            ScopedKernelOverride force(*scalar);
            want = exitsFromRows(
                gatherConvReference(rb.act, g, conv.qweightHwc(), epi), c.n,
                c.cout, g.oh(), g.ow());
        }
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            ScopedKernelOverride force(*set);
            const ResidentExits got =
                inPlaceExits(rb.act, g, conv.qweightHwc(), epi);
            EXPECT_EQ(exitDiff(got, want), "")
                << set->name << " in-place conv diverges from the gather at "
                << c.h << "x" << c.w << " n=" << c.n << " cin=" << c.cin
                << " cout=" << c.cout << " k=" << c.k
                << " stride=" << c.stride << " pad=" << c.pad;
        }
    }
}

/** Random values for every Param and state tensor of @p layer (BN
 *  running variances kept positive), in enumeration order. */
void
randomizeLayer(Layer &layer, std::uint64_t seed)
{
    for (Param *p : layer.params()) {
        const std::vector<float> v = randomVec(p->value.numel(), seed++);
        std::copy(v.begin(), v.end(), p->value.data());
    }
    const std::vector<Tensor *> st = layer.state();
    for (std::size_t i = 0; i < st.size(); ++i) {
        const std::vector<float> v = randomVec(st[i]->numel(), seed++);
        for (std::size_t j = 0; j < v.size(); ++j)
            // state() lists (mean, var) per BatchNorm.
            st[i]->data()[j] = i % 2 == 0 ? 0.2f * v[j] : 1.0f + 0.5f * v[j];
    }
}

/** Copy every Param and state tensor of @p from into @p to, which must
 *  enumerate the same tensors in the same order. */
void
copyLayerValues(Layer &from, const std::vector<Layer *> &to)
{
    std::vector<Param *> dst_p;
    std::vector<Tensor *> dst_s;
    for (Layer *l : to) {
        for (Param *p : l->params())
            dst_p.push_back(p);
        for (Tensor *t : l->state())
            dst_s.push_back(t);
    }
    const std::vector<Param *> src_p = from.params();
    const std::vector<Tensor *> src_s = from.state();
    ASSERT_EQ(src_p.size(), dst_p.size());
    ASSERT_EQ(src_s.size(), dst_s.size());
    const auto copy = [](const Tensor &a, Tensor &b) {
        ASSERT_EQ(a.numel(), b.numel());
        std::copy(a.data(), a.data() + a.numel(), b.data());
    };
    for (std::size_t i = 0; i < src_p.size(); ++i)
        copy(src_p[i]->value, dst_p[i]->value);
    for (std::size_t i = 0; i < src_s.size(); ++i)
        copy(*src_s[i], *dst_s[i]);
}

TEST_F(ResidentTest, FusedResidualExitMatchesSeparateSkipPass)
{
    // ResidualBlock::forwardResident finishes in conv2's epilogue. The
    // reference runs the block as it ran before: conv2 (+bn2) to fp32
    // rows, then a separate pass adding the projection row or the
    // exact dequantized input row, the final ReLU, and the exit.
    struct Case
    {
        int cin, cout, stride;
    };
    for (const Case c : {Case{32, 32, 1}, Case{24, 40, 2}}) {
        SCOPED_TRACE(c.cin == c.cout ? "identity block" : "projection block");
        Rng rng(211);
        ResidualBlock block(c.cin, c.cout, c.stride, rng);
        randomizeLayer(block, 223);
        Conv2d conv1(c.cin, c.cout, 3, c.stride, 1, false, rng);
        BatchNorm2d bn1(c.cout);
        Conv2d conv2(c.cout, c.cout, 3, 1, 1, false, rng);
        BatchNorm2d bn2(c.cout);
        Conv2d proj(c.cin, c.cout, 1, c.stride, 0, false, rng);
        BatchNorm2d proj_bn(c.cout);
        const bool has_proj = c.cin != c.cout || c.stride != 1;
        std::vector<Layer *> parts = {&conv1, &bn1, &conv2, &bn2};
        if (has_proj) {
            parts.push_back(&proj);
            parts.push_back(&proj_bn);
        }
        copyLayerValues(block, parts);
        std::vector<QuantStat> stats;
        block.quantizeWeights(stats);
        planQuantized(block); // the block's paths prepare its convs
        ASSERT_TRUE(block.planResident());
        for (Conv2d *conv : {&conv1, &conv2, &proj}) {
            conv->quantizeWeights(stats);
            conv->prepareResident();
        }

        const int n = 3, h = 9, w = 7;
        Tensor x = Tensor::fromData(
            {n, c.cin, h, w},
            randomVec(static_cast<std::size_t>(n) * c.cin * h * w, 227));
        const ResidentBuffers rb = makeResident(x);
        const QuantActivation &in = rb.act;

        // Reference: conv1 -> codes, conv2 -> rows, projection -> rows.
        const auto affine = [](const BatchNorm2d &bn) {
            std::vector<float> ab(2 * static_cast<std::size_t>(bn.channels()));
            bn.evalAffineInto(ab.data(), ab.data() + bn.channels());
            return ab;
        };
        const std::vector<float> ab1 = affine(bn1), ab2 = affine(bn2),
                                 abp = affine(proj_bn);
        const ConvGeometry g1 = conv1.geometry(h, w);
        const std::int64_t rows =
            static_cast<std::int64_t>(n) * g1.oh() * g1.ow();
        std::vector<std::int8_t> m1q(
            static_cast<std::size_t>(rows * quantPadded(c.cout)));
        std::vector<float> m1s(
            static_cast<std::size_t>(rows * quantBlocks(c.cout)));
        convForwardResident(in, g1, conv1.qweightHwc(),
                            {ab1.data(), ab1.data() + c.cout, true},
                            m1q.data(), m1s.data(), nullptr, nullptr);
        const QuantActivation m1{n, c.cout, g1.oh(), g1.ow(), m1q.data(),
                                 m1s.data()};
        std::vector<float> f2(static_cast<std::size_t>(rows * c.cout));
        convForwardResident(m1, conv2.geometry(m1.h, m1.w),
                            conv2.qweightHwc(),
                            {ab2.data(), ab2.data() + c.cout, false},
                            nullptr, nullptr, f2.data(), nullptr);
        std::vector<float> skip(f2.size());
        if (has_proj) {
            convForwardResident(in, proj.geometry(h, w), proj.qweightHwc(),
                                {abp.data(), abp.data() + c.cout, false},
                                nullptr, nullptr, skip.data(), nullptr);
        } else {
            for (std::int64_t p = 0; p < rows; ++p)
                activeKernels().dequantizeRow(
                    in.q + p * quantPadded(in.c),
                    in.scales + p * in.nbc(), in.c,
                    skip.data() + p * c.cout);
        }
        for (std::size_t i = 0; i < f2.size(); ++i) {
            const float v = f2[i] + skip[i];
            f2[i] = v > 0.0f ? v : 0.0f;
        }
        const ResidentExits want =
            exitsFromRows(f2, n, c.cout, g1.oh(), g1.ow());

        ResidentExits got;
        got.q.assign(want.q.size(), 0);
        got.s.assign(want.s.size(), 0.0f);
        got.planes.assign(want.planes.size(), -1.0f);
        block.forwardResident(in, got.q.data(), got.s.data(), nullptr);
        block.forwardResident(in, nullptr, nullptr, got.planes.data());
        got.rows = want.rows; // the block has no rows exit
        EXPECT_EQ(exitDiff(got, want), "");
    }
}

TEST_F(ResidentTest, PoolsOverCodesMatchPoolsOverDequantizedPlanesBitForBit)
{
    Tensor x = Tensor::fromData(
        {2, 33, 8, 8},
        randomVec(static_cast<std::size_t>(2) * 33 * 8 * 8, 139));
    const ResidentBuffers rb = makeResident(x);
    Tensor planes({2, 33, 8, 8});
    dequantizeActivationNchw(rb.act, planes.data());

    const Tensor want_gap = globalAvgPool(planes);
    Tensor got_gap({2, 33});
    globalAvgPoolResident(rb.act, got_gap.data());
    EXPECT_EQ(0, std::memcmp(got_gap.data(), want_gap.data(),
                             want_gap.numel() * sizeof(float)));
}

TEST_F(ResidentTest, PlannerPlacesPrecisionBoundariesAtConsumerChanges)
{
    Rng rng(149);
    Sequential net;
    net.emplace<Conv2d>(16, 24, 3, 1, 1, false, rng);
    net.emplace<BatchNorm2d>(24);
    net.emplace<Relu>();
    net.emplace<Conv2d>(24, 32, 3, 1, 1, true, rng);
    net.emplace<GlobalAvgPool>();
    net.emplace<Linear>(32, 5, rng);
    std::vector<QuantStat> stats;
    net.quantizeWeights(stats);
    planQuantized(net);

    const auto &plan = net.quantPlan();
    // conv+bn+relu fold to one step; conv, gap, linear follow.
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].kind, QuantStep::Kind::ConvResident);
    EXPECT_NE(plan[0].bn, nullptr);
    EXPECT_TRUE(plan[0].relu);
    EXPECT_TRUE(plan[0].emitQuant) << "the conv consumes codes";
    EXPECT_EQ(plan[1].kind, QuantStep::Kind::ConvResident);
    EXPECT_EQ(plan[1].bn, nullptr);
    EXPECT_FALSE(plan[1].relu);
    EXPECT_TRUE(plan[1].emitQuant) << "gap consumes codes";
    EXPECT_EQ(plan[2].kind, QuantStep::Kind::Gap);
    EXPECT_FALSE(plan[2].emitQuant) << "gap always exits fp32";
    EXPECT_EQ(plan[3].kind, QuantStep::Kind::Plain); // fp32 linear
}

TEST_F(ResidentTest, PoolWithoutResidentProducerStaysPlain)
{
    Rng rng(151);
    Sequential net;
    // The clamp runs its own fp32 forward, so the resident conv before
    // it exits fp32 and the pool behind it must NOT expect codes.
    net.emplace<Conv2d>(16, 24, 3, 1, 1, false, rng);
    net.emplace<HardClamp>(-1.0f, 1.0f);
    net.emplace<GlobalAvgPool>();
    std::vector<QuantStat> stats;
    net.quantizeWeights(stats);
    planQuantized(net);
    const auto &plan = net.quantPlan();
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].kind, QuantStep::Kind::ConvResident);
    EXPECT_FALSE(plan[0].emitQuant) << "the clamp consumes fp32";
    EXPECT_EQ(plan[1].kind, QuantStep::Kind::Plain);
    EXPECT_EQ(plan[2].kind, QuantStep::Kind::Plain)
        << "pool demoted: its producer exits fp32";
}

/** Mixed chain: quantized conv -> BN mid-chain (not right after a
 *  conv) -> pool -> non-quantized linear. The BN and linear run as Plain fp32
 *  steps; the whole planned forward must still track the pre-
 *  quantization fp32 network. */
TEST_F(ResidentTest, MixedChainTracksFp32Network)
{
    Rng rng(157);
    Sequential net;
    net.emplace<Conv2d>(16, 24, 3, 1, 1, true, rng);
    net.emplace<Relu>();
    net.emplace<BatchNorm2d>(24); // mid-chain, behind the folded ReLU
    net.emplace<GlobalAvgPool>();
    Linear &fc = net.emplace<Linear>(24, 7, rng);

    Tensor x = Tensor::fromData(
        {2, 16, 12, 12},
        randomVec(static_cast<std::size_t>(2) * 16 * 12 * 12, 163));
    const Tensor y32 = net.forward(x, Mode::Eval);

    // Quantize only the convs: the linear stays fp32 (mixed chain).
    std::vector<QuantStat> stats;
    static_cast<Conv2d &>(net.at(0)).quantizeWeights(stats);
    planQuantized(net);
    const auto &plan = net.quantPlan();
    // Conv+ReLU fold into one resident step that exits fp32; BN not
    // right after the conv runs Plain on fp32, and so do GAP (its
    // producer, the BN, exits fp32) and the linear.
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].kind, QuantStep::Kind::ConvResident);
    EXPECT_TRUE(plan[0].relu);
    EXPECT_FALSE(plan[0].emitQuant);
    EXPECT_EQ(plan[1].kind, QuantStep::Kind::Plain);
    EXPECT_EQ(plan[2].kind, QuantStep::Kind::Plain);
    EXPECT_EQ(plan[3].kind, QuantStep::Kind::Plain);
    EXPECT_TRUE(fc.quantTensors()[0]->empty()) << "linear stayed fp32";

    const Tensor y8 = net.forward(x, Mode::Eval);
    ASSERT_EQ(y8.numel(), y32.numel());
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.25) << "element " << i;
}

/** Narrow fp32 stem + BN + ReLU feeding a residual block: the BN and
 *  ReLU fold into the entry quantization as one FusedEntry step (no
 *  separate BN/ReLU plane passes), the planned forward still tracks
 *  the fp32 network, and the fused path stays bit-identical across
 *  thread counts. */
TEST_F(ResidentTest, FusedEntryFoldsBnReluIntoBoundary)
{
    Rng rng(179);
    Sequential net;
    net.emplace<Conv2d>(3, 24, 3, 1, 1, false, rng);
    net.emplace<BatchNorm2d>(24);
    net.emplace<Relu>();
    net.emplace<ResidualBlock>(24, 24, 1, rng);
    net.emplace<GlobalAvgPool>();

    Tensor x = Tensor::fromData(
        {2, 3, 12, 12},
        randomVec(static_cast<std::size_t>(2) * 3 * 12 * 12, 181));
    const Tensor y32 = net.forward(x, Mode::Eval);

    std::vector<QuantStat> stats;
    net.quantizeWeights(stats);
    planQuantized(net);
    ASSERT_FALSE(net.quantPlan().empty());
    const auto &plan = net.quantPlan();
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].kind, QuantStep::Kind::Plain); // narrow stem
    EXPECT_EQ(plan[1].kind, QuantStep::Kind::FusedEntry);
    EXPECT_NE(plan[1].bn, nullptr);
    EXPECT_TRUE(plan[1].relu);
    EXPECT_TRUE(plan[1].emitQuant) << "entry emits resident codes";
    EXPECT_EQ(plan[2].kind, QuantStep::Kind::Residual);
    EXPECT_EQ(plan[3].kind, QuantStep::Kind::Gap);

    setThreadCount(1);
    const Tensor y8 = net.forward(x, Mode::Eval);
    ASSERT_EQ(y8.numel(), y32.numel());
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.25) << "element " << i;
    for (int threads : {2, 5}) {
        setThreadCount(threads);
        const Tensor got = net.forward(x, Mode::Eval);
        EXPECT_EQ(0, std::memcmp(got.data(), y8.data(),
                                 y8.numel() * sizeof(float)))
            << "threads=" << threads;
    }
}

/** One token per plan step: its kind, "+bn"/"+relu" when folded, and
 *  ">q" when its output stays resident for the next step. */
std::string
planGolden(const Sequential &net)
{
    using K = QuantStep::Kind;
    std::string out;
    for (const QuantStep &st : net.quantPlan()) {
        if (!out.empty())
            out += ' ';
        out += st.kind == K::Plain          ? "plain"
               : st.kind == K::ConvResident ? "conv"
               : st.kind == K::Residual     ? "res"
               : st.kind == K::Gap          ? "gap"
               : st.kind == K::FusedEntry   ? "entry"
                                            : "other";
        if (st.bn != nullptr)
            out += "+bn";
        if (st.relu)
            out += "+relu";
        if (st.emitQuant)
            out += ">q";
    }
    return out;
}

/** The plans of the models the pipelines actually quantize: the Proxy
 *  and Full backbones and the decoder. Any planner change shows up
 *  here as a diff. */
TEST_F(ResidentTest, RealModelPlansMatchGolden)
{
    for (const BackboneStyle style :
         {BackboneStyle::Proxy, BackboneStyle::Full}) {
        Rng rng(7);
        auto bb = makeBackbone(style, 3, 10, rng);
        std::vector<QuantStat> stats;
        bb->quantizeWeights(stats);
        planQuantized(*bb);
        EXPECT_EQ(planGolden(*bb),
                  style == BackboneStyle::Proxy
                      ? "plain entry+bn+relu>q res>q res>q res>q gap plain"
                      : "plain entry+bn+relu>q res>q res>q res>q res>q "
                        "res>q gap plain");
    }
    LecaConfig cfg;
    Rng rng(11);
    const auto decoder = makeDecoder(cfg, rng);
    std::vector<QuantStat> stats;
    decoder->quantizeWeights(stats);
    planQuantized(*decoder);
    EXPECT_EQ(planGolden(*decoder),
              "plain plain plain plain plain plain plain plain "
              "entry+bn+relu>q conv");
}

TEST_F(ResidentTest, PlannedForwardBitIdenticalAcrossThreadCounts)
{
    Rng rng(167);
    Sequential net;
    net.emplace<Conv2d>(16, 24, 3, 1, 1, false, rng);
    net.emplace<BatchNorm2d>(24);
    net.emplace<Relu>();
    net.emplace<ResidualBlock>(24, 32, 2, rng);
    net.emplace<GlobalAvgPool>();
    net.emplace<Linear>(32, 6, rng);
    std::vector<QuantStat> stats;
    net.quantizeWeights(stats);
    planQuantized(net);
    ASSERT_FALSE(net.quantPlan().empty());
    Tensor x = Tensor::fromData(
        {3, 16, 12, 12},
        randomVec(static_cast<std::size_t>(3) * 16 * 12 * 12, 173));

    setThreadCount(1);
    const Tensor base = net.forward(x, Mode::Eval);
    for (int threads : {2, 4, 8}) {
        setThreadCount(threads);
        const Tensor got = net.forward(x, Mode::Eval);
        ASSERT_EQ(got.numel(), base.numel());
        EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                                 base.numel() * sizeof(float)))
            << "planned forward diverges at threads=" << threads;
    }
}

/**
 * A backbone whose first residual block cannot run resident (its conv1
 * reads the 8-channel stem) though its conv2 and the next block are
 * wide enough: the block's own children still need a plan.
 */
std::unique_ptr<Sequential>
makeNarrowEntryBackbone(Rng &rng)
{
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(3, 8, 3, 1, 1, false, rng);
    net->emplace<BatchNorm2d>(8);
    net->emplace<Relu>();
    net->emplace<ResidualBlock>(8, 16, 1, rng);
    net->emplace<ResidualBlock>(16, 32, 2, rng);
    net->emplace<GlobalAvgPool>();
    net->emplace<Linear>(32, 5, rng);
    return net;
}

TEST_F(ResidentTest, QuantizeAndLoadQuantizedInferIdentically)
{
    Tensor x({2, 3, 32, 32});
    const std::vector<float> v =
        randomVec(static_cast<std::size_t>(2) * 3 * 32 * 32, 179);
    std::memcpy(x.data(), v.data(), v.size() * sizeof(float));
    const std::string path =
        ::testing::TempDir() + "/leca_resident_pipeline.ckpt";
    for (const bool narrow_entry : {false, true}) {
        SCOPED_TRACE(narrow_entry ? "narrow-entry backbone"
                                  : "Proxy backbone");
        const auto make = [narrow_entry] {
            LecaConfig cfg;
            cfg.nch = 4;
            Rng rng(7);
            auto bb = narrow_entry
                          ? makeNarrowEntryBackbone(rng)
                          : makeBackbone(BackboneStyle::Proxy, 3, 5, rng);
            LecaPipeline::Options options;
            options.leca = cfg;
            options.seed = 11;
            return std::make_unique<LecaPipeline>(options, std::move(bb));
        };
        auto original = make();
        original->quantize();
        const Tensor want = original->forward(x, Mode::Eval);

        original->saveQuantized(path);
        auto restored = make();
        ASSERT_TRUE(restored->loadQuantized(path));
        const Tensor got = restored->forward(x, Mode::Eval);
        ASSERT_EQ(got.numel(), want.numel());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.numel() * sizeof(float)))
            << "loadQuantized inference differs from the quantize()d one";
    }
}

TEST_F(ResidentTest, WarmPlannedForwardRunsUnderDenyAllocScope)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    Rng rng(181);
    Sequential net;
    net.emplace<Conv2d>(16, 24, 3, 1, 1, false, rng);
    net.emplace<BatchNorm2d>(24);
    net.emplace<Relu>();
    net.emplace<ResidualBlock>(24, 24, 1, rng);
    net.emplace<GlobalAvgPool>();
    std::vector<QuantStat> stats;
    net.quantizeWeights(stats);
    planQuantized(net);
    ASSERT_FALSE(net.quantPlan().empty());
    Tensor x = Tensor::fromData(
        {2, 16, 12, 12},
        randomVec(static_cast<std::size_t>(2) * 16 * 12 * 12, 191));

    // Warm: fill the arenas, the recycled tensor pools, and every pool
    // worker's scratch before the deny window.
    Tensor y0;
    for (int i = 0; i < 4; ++i)
        y0 = net.forward(x, Mode::Eval);
    warmPoolArenas();
    {
        DenyAllocScope deny;
        for (int i = 0; i < 5; ++i) {
            const Tensor y = net.forward(x, Mode::Eval);
            ASSERT_EQ(0, std::memcmp(y.data(), y0.data(),
                                     y.numel() * sizeof(float)));
        }
        EXPECT_EQ(deny.violations(), 0u)
            << "warm resident-planned forward allocated on the heap";
    }
}

} // namespace
} // namespace leca
