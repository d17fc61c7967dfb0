/**
 * @file
 * Tests for the LeCA sensor architecture: weight quantization and
 * kernel flattening, the PE dataflow (cross-checked against the raw
 * analog chain), full-chip encoding, repetitive readout, activity
 * counters, and the timing model's headline frame rates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "hw/pe.hh"
#include "hw/sensor_chip.hh"
#include "hw/timing.hh"
#include "hw/weights.hh"
#include "sensor/bayer.hh"
#include "util/check.hh"
#include "util/rng.hh"

namespace leca {
namespace {

TEST(Weights, QuantizeSignAndMagnitude)
{
    const ScmWeight pos = quantizeWeight(0.5f, 1.0f);
    EXPECT_FALSE(pos.negative);
    EXPECT_EQ(pos.magnitude, 8); // round(0.5 * 15)

    const ScmWeight neg = quantizeWeight(-1.0f, 1.0f);
    EXPECT_TRUE(neg.negative);
    EXPECT_EQ(neg.magnitude, 15);
}

TEST(Weights, QuantizeClampsBeyondScale)
{
    EXPECT_EQ(quantizeWeight(7.0f, 1.0f).magnitude, 15);
    EXPECT_EQ(quantizeWeight(-7.0f, 1.0f).magnitude, 15);
    // Far beyond the scale, |w| / scale * steps overflows an int; the
    // weight still maps to the full code with its sign.
    for (const float w : {1e10f, -1e10f}) {
        const ScmWeight q = quantizeWeight(w, 1.0f);
        EXPECT_EQ(q.magnitude, 15) << w;
        EXPECT_EQ(q.negative, w < 0.0f) << w;
    }
}

TEST(Weights, QuantizeRejectsNonFinite)
{
    // A non-finite weight has no cap-DAC code: it must not silently
    // become a dead tap.
    for (const float w : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
        try {
            quantizeWeight(w, 1.0f);
            ADD_FAILURE() << "expected CheckError for weight " << w;
        } catch (const CheckError &err) {
            EXPECT_NE(std::string(err.what()).find("not finite"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(Weights, DequantizeRoundTripWithinHalfStep)
{
    Rng rng(3);
    const float scale = 0.8f;
    for (int i = 0; i < 100; ++i) {
        const float w = static_cast<float>(rng.uniform(-scale, scale));
        const ScmWeight q = quantizeWeight(w, scale);
        const float mag = static_cast<float>(q.magnitude) / 15.0f * scale;
        const float back = q.negative ? -mag : mag;
        EXPECT_LE(std::abs(back - w), scale / 15.0f / 2.0f + 1e-6f);
    }
}

TEST(Weights, FlattenHalvesAndDuplicatesGreen)
{
    Tensor w({1, 3, 2, 2});
    w.at(0, 0, 0, 0) = 0.9f;  // R at pixel (0,0)
    w.at(0, 1, 0, 0) = 0.8f;  // G at pixel (0,0)
    w.at(0, 2, 0, 0) = -0.6f; // B at pixel (0,0)
    const auto kernels = flattenKernels(w, 1.0f);
    ASSERT_EQ(kernels.size(), 1u);
    // The raw-domain weight each tap's code represents (4x4 row-major).
    std::vector<float> floats(16);
    for (std::size_t i = 0; i < floats.size(); ++i) {
        const ScmWeight &tap = kernels[0].taps[i];
        const float mag = static_cast<float>(tap.magnitude) / 15.0f;
        floats[i] = tap.negative ? -mag : mag;
    }
    // Raw cell (0,0): R at (0,0), G/2 at (0,1) and (1,0), B at (1,1).
    EXPECT_NEAR(floats[0], 0.9f, 0.04f);
    EXPECT_NEAR(floats[1], 0.4f, 0.04f);
    EXPECT_NEAR(floats[4], 0.4f, 0.04f);
    EXPECT_NEAR(floats[5], -0.6f, 0.04f);
    // Other pixels are zero.
    EXPECT_EQ(floats[2], 0.0f);
    EXPECT_EQ(floats[10], 0.0f);
}

TEST(Weights, FlattenProducesOneKernelPerChannel)
{
    Tensor w({6, 3, 2, 2});
    const auto kernels = flattenKernels(w, 1.0f);
    EXPECT_EQ(kernels.size(), 6u);
    for (const auto &k : kernels)
        EXPECT_EQ(k.taps.size(), 16u);
}

TEST(Pe, BlockMatchesChainSequence)
{
    // The PE's row-wise input-stationary schedule over a 4x4 block must
    // equal one flat 16-MAC chain encode in raw row-major order.
    CircuitConfig cfg;
    Pe pe(cfg);
    pe.configureAdc(QBits(4.0), 0.3);

    Rng rng(7);
    std::vector<double> pixels(16);
    for (auto &v : pixels)
        v = rng.uniform(0.4, 1.4);
    Tensor w({1, 3, 2, 2});
    for (std::size_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto kernels = flattenKernels(w, 1.0f);

    pe.startBlock();
    for (int r = 0; r < 4; ++r) {
        pe.loadWeights(kernels, 0, 1, r);
        pe.loadRow({pixels[static_cast<std::size_t>(4 * r)],
                    pixels[static_cast<std::size_t>(4 * r + 1)],
                    pixels[static_cast<std::size_t>(4 * r + 2)],
                    pixels[static_cast<std::size_t>(4 * r + 3)]});
        pe.processRow(1, PeMode::Ideal, nullptr);
    }
    const auto codes = pe.readOfmap(1, PeMode::Ideal, nullptr);

    AnalogChain chain = AnalogChain::nominal(cfg);
    chain.adc.configure(QBits(4.0), 0.3);
    const int expect = chain.encode(pixels, kernels[0].taps, true, nullptr);
    EXPECT_EQ(codes[0], expect);
}

TEST(Pe, StartBlockResetsObuffers)
{
    CircuitConfig cfg;
    Pe pe(cfg);
    pe.configureAdc(QBits(4.0), 0.3);
    Tensor w = Tensor::full({1, 3, 2, 2}, 0.7f);
    const auto kernels = flattenKernels(w, 1.0f);
    pe.startBlock();
    // Empty o-buffers read the zero-differential code.
    const int zero = pe.readOfmap(1, PeMode::Ideal, nullptr)[0];
    pe.loadWeights(kernels, 0, 1, 0);
    pe.loadRow({1.2, 1.2, 1.2, 1.2});
    pe.processRow(1, PeMode::Ideal, nullptr);
    EXPECT_NE(pe.readOfmap(1, PeMode::Ideal, nullptr)[0], zero);
    pe.startBlock();
    EXPECT_EQ(pe.readOfmap(1, PeMode::Ideal, nullptr)[0], zero);
}

TEST(Pe, StatsCountEvents)
{
    CircuitConfig cfg;
    Pe pe(cfg);
    pe.configureAdc(QBits(3.0), 0.3);
    Tensor w = Tensor::full({4, 3, 2, 2}, 0.5f);
    const auto kernels = flattenKernels(w, 1.0f);
    pe.startBlock();
    for (int r = 0; r < 4; ++r) {
        pe.loadWeights(kernels, 0, 4, r);
        pe.loadRow({1.0, 1.0, 1.0, 1.0});
        pe.processRow(4, PeMode::Ideal, nullptr);
    }
    pe.readOfmap(4, PeMode::Ideal, nullptr);
    const ChipStats &s = pe.stats();
    EXPECT_EQ(s.iBufferWrites, 16);
    EXPECT_EQ(s.macOps, 64); // 16 MACs x 4 rows
    EXPECT_EQ(s.totalAdcConversions(), 4);
    EXPECT_EQ(s.localSramWriteBits, 4 * 16 * 5);
}

class ChipTest : public ::testing::Test
{
  protected:
    ChipConfig
    smallChip(int nch, QBits qbits = QBits(3.0)) const
    {
        ChipConfig cfg;
        cfg.rgbHeight = 16;
        cfg.rgbWidth = 16;
        cfg.qbits = qbits;
        cfg.monteCarlo = false;
        return cfg;
        (void)nch;
    }

    Tensor
    scene(int hw, float fill = 0.5f) const
    {
        return Tensor::full({3, hw, hw}, fill);
    }

    std::vector<FlatKernel>
    kernels(int nch, Rng &rng) const
    {
        Tensor w({nch, 3, 2, 2});
        for (std::size_t i = 0; i < w.numel(); ++i)
            w[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        return flattenKernels(w, 1.0f);
    }
};

TEST_F(ChipTest, EncodeShape)
{
    LecaSensorChip chip(smallChip(4));
    Rng rng(11);
    chip.loadKernels(kernels(4, rng));
    Rng frame_rng(1);
    const Tensor codes = chip.encodeFrame(scene(16), PeMode::Ideal,
                                          frame_rng, false);
    EXPECT_EQ(codes.shape(), (std::vector<int>{4, 8, 8}));
}

TEST_F(ChipTest, IdealEncodeDeterministic)
{
    LecaSensorChip chip(smallChip(4));
    Rng rng(11);
    chip.loadKernels(kernels(4, rng));
    Rng r1(1), r2(1);
    const Tensor a = chip.encodeFrame(scene(16), PeMode::Ideal, r1, false);
    const Tensor b = chip.encodeFrame(scene(16), PeMode::Ideal, r2, false);
    for (std::size_t i = 0; i < a.numel(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST_F(ChipTest, EncodeMatchesChainReference)
{
    // Whole-chip consistency: every ofmap element must equal the flat
    // chain encode of its raw 4x4 block — Ideal mode on a nominal chip
    // against an independent nominal chain, and Real mode on a
    // Monte-Carlo chip against the chain of the PE that computed it.
    struct Case
    {
        bool monteCarlo;
        PeMode mode;
    };
    for (const Case c : {Case{false, PeMode::Ideal},
                         Case{true, PeMode::Real}}) {
        SCOPED_TRACE(c.monteCarlo ? "Real, Monte-Carlo" : "Ideal, nominal");
        ChipConfig cfg = smallChip(2);
        cfg.monteCarlo = c.monteCarlo;
        LecaSensorChip chip(cfg);
        Rng rng(13);
        const auto ks = kernels(2, rng);
        chip.loadKernels(ks);

        Tensor rgb({3, 16, 16});
        for (std::size_t i = 0; i < rgb.numel(); ++i)
            rgb[i] = static_cast<float>(rng.uniform(0.0, 1.0));

        Rng frame_rng(1);
        const Tensor codes = chip.encodeFrame(rgb, c.mode, frame_rng,
                                              false);

        const Tensor raw = mosaic(rgb);
        CircuitConfig ccfg;
        AnalogChain nominal = AnalogChain::nominal(ccfg);
        nominal.adc.configure(QBits(3.0), 0.35);
        SensorConfig scfg;
        for (int by = 0; by < 8; ++by) {
            for (int bx = 0; bx < 8; ++bx) {
                std::vector<double> pixels(16);
                for (int r = 0; r < 4; ++r)
                    for (int col = 0; col < 4; ++col)
                        pixels[static_cast<std::size_t>(4 * r + col)] =
                            scfg.digitalToVoltage(
                                raw.at(4 * by + r, 4 * bx + col));
                const AnalogChain &chain = c.mode == PeMode::Ideal
                                               ? nominal
                                               : chip.pe(bx).chain();
                for (int k = 0; k < 2; ++k) {
                    const int expect = chain.encode(
                        pixels, ks[static_cast<std::size_t>(k)].taps,
                        c.mode == PeMode::Ideal, nullptr);
                    EXPECT_EQ(codes.at(k, by, bx),
                              static_cast<float>(expect))
                        << "block " << by << "," << bx << " kernel " << k;
                }
            }
        }
    }
}

TEST_F(ChipTest, LoadKernelsRejectsCodesBeyondTheDac)
{
    // Codes flattened for a 4-bit DAC do not fit a 3-bit one.
    ChipConfig cfg = smallChip(1);
    cfg.circuit.weightMagBits = 3;
    LecaSensorChip chip(cfg);
    const Tensor w = Tensor::full({1, 3, 2, 2}, 0.9f);
    EXPECT_THROW(chip.loadKernels(flattenKernels(w, 1.0f)), CheckError);
    EXPECT_NO_THROW(chip.loadKernels(flattenKernels(w, 1.0f, cfg.circuit)));
    EXPECT_THROW(chip.loadKernels({FlatKernel{}}), CheckError);
}

TEST_F(ChipTest, RepetitiveReadoutDoublesPixelReads)
{
    LecaSensorChip chip4(smallChip(4));
    LecaSensorChip chip8(smallChip(8));
    Rng rng(17);
    chip4.loadKernels(kernels(4, rng));
    Rng rng2(17);
    chip8.loadKernels(kernels(8, rng2));
    Rng f1(1), f2(1);
    chip4.encodeFrame(scene(16), PeMode::Ideal, f1, false);
    chip8.encodeFrame(scene(16), PeMode::Ideal, f2, false);
    EXPECT_EQ(chip8.stats().pixelReads, 2 * chip4.stats().pixelReads);
}

TEST_F(ChipTest, NoisyEncodeDiffersButClose)
{
    ChipConfig cfg = smallChip(4);
    cfg.monteCarlo = true;
    LecaSensorChip chip(cfg);
    Rng rng(19);
    chip.loadKernels(kernels(4, rng));
    Tensor rgb({3, 16, 16});
    for (std::size_t i = 0; i < rgb.numel(); ++i)
        rgb[i] = static_cast<float>(rng.uniform(0.2, 0.8));
    Rng f1(1), f2(1);
    const Tensor ideal = chip.encodeFrame(rgb, PeMode::Ideal, f1, false);
    const Tensor noisy = chip.encodeFrame(rgb, PeMode::RealNoisy, f2, true);
    double max_err = 0.0;
    double diff_count = 0.0;
    for (std::size_t i = 0; i < ideal.numel(); ++i) {
        max_err = std::max(max_err,
                           static_cast<double>(
                               std::abs(ideal[i] - noisy[i])));
        if (ideal[i] != noisy[i])
            diff_count += 1.0;
    }
    EXPECT_LE(max_err, 2.0);     // codes shift by at most ~2 LSB
    EXPECT_GT(diff_count, 0.0);  // but noise does flip some codes
}

TEST_F(ChipTest, NormalModeQuantizesTo8Bit)
{
    LecaSensorChip chip(smallChip(4));
    Rng rng(23);
    const Tensor out = chip.normalModeCapture(scene(16, 0.5f), rng, false);
    EXPECT_EQ(out.shape(), (std::vector<int>{32, 32}));
    for (std::size_t i = 0; i < out.numel(); ++i) {
        // Every value is a multiple of 1/255.
        const float steps = out[i] * 255.0f;
        EXPECT_NEAR(steps, std::round(steps), 1e-3f);
    }
    EXPECT_EQ(chip.stats().adcConversions.at(8.0), 32 * 32);
}

TEST_F(ChipTest, CodesToFeaturesRange)
{
    LecaSensorChip chip(smallChip(4));
    Tensor codes = Tensor::fromData({1, 1, 3}, {0.0f, 3.5f, 7.0f});
    const Tensor f = chip.codesToFeatures(codes);
    EXPECT_FLOAT_EQ(f[0], -1.0f);
    EXPECT_FLOAT_EQ(f[1], 0.0f);
    EXPECT_FLOAT_EQ(f[2], 1.0f);
}

TEST(Timing, Headline209FpsAt448)
{
    TimingModel timing;
    const double fps = timing.framesPerSecond(448, 4);
    EXPECT_NEAR(fps, 209.0, 2.0);
}

TEST(Timing, Headline86FpsAt1080p)
{
    TimingModel timing;
    const double fps = timing.framesPerSecond(1080, 4);
    EXPECT_NEAR(fps, 86.0, 1.5);
}

TEST(Timing, RepetitiveReadoutScalesLatency)
{
    TimingModel timing;
    const double t4 = timing.frameLatencyUs(448, 4);
    const double t8 = timing.frameLatencyUs(448, 8);
    const double t12 = timing.frameLatencyUs(448, 12);
    EXPECT_DOUBLE_EQ(t8, 2 * t4);
    EXPECT_DOUBLE_EQ(t12, 3 * t4);
}

TEST(Timing, SramWriteHiddenBehindReadout)
{
    TimingModel timing;
    EXPECT_TRUE(timing.sramWriteHidden());
}

TEST(Timing, NormalModeFasterThanEncodePerRowBand)
{
    // Normal mode has no MAC burst, so a frame is a bit faster.
    TimingModel timing;
    EXPECT_LT(timing.normalFrameLatencyUs(448),
              timing.frameLatencyUs(448, 4));
}

} // namespace
} // namespace leca
