/**
 * @file
 * Tests for the baseline compression methods: reconstruction quality
 * properties, compression-ratio accounting, and the qualitative
 * relationships the paper's comparisons rely on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "compression/agt.hh"
#include "compression/compressive_sensing.hh"
#include "compression/dct.hh"
#include "compression/jpeg.hh"
#include "compression/learned_codec.hh"
#include "compression/microshift.hh"
#include "compression/simple_methods.hh"
#include "compression/zonal_dct.hh"
#include "data/dataset.hh"
#include "tensor/ops.hh"
#include "util/check.hh"
#include "util/rng.hh"

namespace leca {
namespace {

/** A small batch of structured synthetic images. */
Dataset
testBatch(int count = 4, int hw = 32)
{
    SyntheticVision::Config cfg;
    cfg.resolution = hw;
    cfg.numClasses = 4;
    cfg.seed = 5;
    return SyntheticVision(cfg).generate(count, 77);
}

TEST(Dct, RoundTripIsIdentity)
{
    Dct8 dct;
    Rng rng(3);
    float block[64], coeffs[64], back[64];
    for (int i = 0; i < 64; ++i)
        block[i] = static_cast<float>(rng.uniform(-1, 1));
    dct.forward(block, coeffs);
    dct.inverse(coeffs, back);
    for (int i = 0; i < 64; ++i)
        EXPECT_NEAR(back[i], block[i], 1e-4f);
}

TEST(Dct, ConstantBlockConcentratesInDc)
{
    Dct8 dct;
    float block[64], coeffs[64];
    for (int i = 0; i < 64; ++i)
        block[i] = 0.5f;
    dct.forward(block, coeffs);
    EXPECT_NEAR(coeffs[0], 0.5f * 8.0f, 1e-5f);
    for (int i = 1; i < 64; ++i)
        EXPECT_NEAR(coeffs[i], 0.0f, 1e-5f);
}

TEST(Dct, Orthonormal)
{
    Dct8 dct;
    // Parseval: energy preserved.
    Rng rng(5);
    float block[64], coeffs[64];
    for (int i = 0; i < 64; ++i)
        block[i] = static_cast<float>(rng.uniform(-1, 1));
    dct.forward(block, coeffs);
    double e1 = 0.0, e2 = 0.0;
    for (int i = 0; i < 64; ++i) {
        e1 += static_cast<double>(block[i]) * block[i];
        e2 += static_cast<double>(coeffs[i]) * coeffs[i];
    }
    EXPECT_NEAR(e1, e2, 1e-4);
}

TEST(Cnv, NearLossless)
{
    ConventionalSensor cnv;
    const Dataset ds = testBatch();
    const Tensor out = cnv.process(ds.images);
    EXPECT_GT(psnrDb(ds.images, out), 45.0);
    EXPECT_DOUBLE_EQ(cnv.compressionRatio(), 1.0);
}

TEST(Sd, CompressionRatios)
{
    EXPECT_DOUBLE_EQ(SpatialDownsample(2, 2).compressionRatio(), 4.0);
    EXPECT_DOUBLE_EQ(SpatialDownsample(2, 3).compressionRatio(), 6.0);
    EXPECT_DOUBLE_EQ(SpatialDownsample(2, 4).compressionRatio(), 8.0);
}

TEST(Sd, PreservesShapeAndSmoothsTexture)
{
    SpatialDownsample sd(2, 2);
    const Dataset ds = testBatch();
    const Tensor out = sd.process(ds.images);
    ASSERT_EQ(out.shape(), ds.images.shape());
    // High-frequency energy must shrink: compare horizontal gradients.
    auto grad_energy = [](const Tensor &t) {
        double e = 0.0;
        for (int i = 0; i < t.size(0); ++i)
            for (int c = 0; c < 3; ++c)
                for (int y = 0; y < t.size(2); ++y)
                    for (int x = 1; x < t.size(3); ++x) {
                        const double d = t.at(i, c, y, x)
                                         - t.at(i, c, y, x - 1);
                        e += d * d;
                    }
        return e;
    };
    EXPECT_LT(grad_energy(out), grad_energy(ds.images));
}

TEST(Sd, MoreAggressiveKernelLosesMore)
{
    const Dataset ds = testBatch();
    SpatialDownsample sd4(2, 2), sd8(2, 4);
    const double psnr4 = psnrDb(ds.images, sd4.process(ds.images));
    const double psnr8 = psnrDb(ds.images, sd8.process(ds.images));
    EXPECT_GT(psnr4, psnr8);
}

TEST(Lr, QuantizesToConfiguredLevels)
{
    LowResQuantizer lr(QBits(2.0));
    const Dataset ds = testBatch(2, 16);
    const Tensor out = lr.process(ds.images);
    for (std::size_t i = 0; i < out.numel(); ++i) {
        const float scaled = out[i] * 3.0f;
        EXPECT_NEAR(scaled, std::round(scaled), 1e-4f);
    }
    EXPECT_DOUBLE_EQ(lr.compressionRatio(), 4.0);
}

TEST(Lr, WireHoldsAtMostEightBitCodes)
{
    // The wire sends one byte per code, so a deeper quantizer is
    // refused rather than truncated.
    LowResQuantizer lr9(QBits(9.0));
    EXPECT_THROW(lr9.process(testBatch(1, 8).images), CheckError);
}

TEST(Lr, LowerBitsLosesMore)
{
    const Dataset ds = testBatch();
    LowResQuantizer lr3(QBits(3.0)), lr1(QBits(1.0));
    EXPECT_GT(psnrDb(ds.images, lr3.process(ds.images)),
              psnrDb(ds.images, lr1.process(ds.images)));
}

TEST(Cs, MeasurementCount)
{
    // 16 measurements per 64-sample block.
    CompressiveSensing cs(4);
    EXPECT_DOUBLE_EQ(cs.compressionRatio(), 4.0);
}

TEST(Cs, ReconstructsSmoothBlockWell)
{
    CompressiveSensing cs(4);
    // A smooth gradient block is sparse in DCT, so CS recovers it.
    float block[64];
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            block[y * 8 + x] = 0.3f + 0.05f * static_cast<float>(x);
    std::uint8_t codes[32]; // 16 measurements, two bytes each
    cs.measureBlock(block, codes);
    float recon[64];
    cs.reconstructBlock(codes, recon);
    double err = 0.0;
    for (int i = 0; i < 64; ++i)
        err += std::abs(recon[i] - block[i]);
    EXPECT_LT(err / 64.0, 0.05);
}

TEST(Cs, ProcessBatchReasonablePsnr)
{
    CompressiveSensing cs(4);
    const Dataset ds = testBatch(2, 32);
    const Tensor out = cs.process(ds.images);
    ASSERT_EQ(out.shape(), ds.images.shape());
    const double psnr = psnrDb(ds.images, out);
    EXPECT_GT(psnr, 15.0); // recovers the gist...
    EXPECT_LT(psnr, 40.0); // ...but is clearly lossy
}

TEST(Cs, DeterministicForSeed)
{
    CompressiveSensing a(4, 9), b(4, 9);
    const Dataset ds = testBatch(1, 16);
    const Tensor oa = a.process(ds.images);
    const Tensor ob = b.process(ds.images);
    for (std::size_t i = 0; i < oa.numel(); ++i)
        EXPECT_EQ(oa[i], ob[i]);
}

TEST(Ms, BeatsPlainQuantizerAtSameBits)
{
    // The whole point of Microshift: the shift pattern + smoothing
    // recovers intensity resolution a plain 2-bit quantizer loses.
    const Dataset ds = testBatch();
    Microshift ms(2);
    LowResQuantizer lr(QBits(2.0));
    const double ms_psnr = psnrDb(ds.images, ms.process(ds.images));
    const double lr_psnr = psnrDb(ds.images, lr.process(ds.images));
    EXPECT_GT(ms_psnr, lr_psnr);
}

TEST(Ms, ShiftPatternCoversStep)
{
    Microshift ms(2);
    float lo = 1.0f, hi = -1.0f;
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) {
            lo = std::min(lo, ms.shiftAt(y, x));
            hi = std::max(hi, ms.shiftAt(y, x));
        }
    EXPECT_LT(lo, -0.4f);
    EXPECT_GT(hi, 0.4f);
}

TEST(Agt, ThresholdControlsKeptFraction)
{
    const Dataset ds = testBatch(2, 32);
    AccumGradientThreshold loose(0.02f), tight(0.5f);
    // The measured ratio is 1 / (kept fraction).
    loose.process(ds.images);
    const double kept_loose = 1.0 / loose.compressionRatio();
    tight.process(ds.images);
    const double kept_tight = 1.0 / tight.compressionRatio();
    EXPECT_GT(kept_loose, kept_tight);
}

TEST(Agt, CalibrationHitsTargetRatio)
{
    const Dataset ds = testBatch(2, 32);
    AccumGradientThreshold agt;
    agt.calibrate(ds.images, 4.0);
    agt.process(ds.images);
    EXPECT_NEAR(agt.compressionRatio(), 4.0, 0.6);
}

TEST(Agt, ReconstructionTracksInput)
{
    const Dataset ds = testBatch(2, 32);
    AccumGradientThreshold agt;
    agt.calibrate(ds.images, 4.0);
    const Tensor out = agt.process(ds.images);
    EXPECT_GT(psnrDb(ds.images, out), 18.0);
}

TEST(Jpeg, HighQualityHighPsnrLowRatio)
{
    const Dataset ds = testBatch(2, 32);
    JpegCodec hq(90), lq(10);
    const Tensor out_hq = hq.process(ds.images);
    const double psnr_hq = psnrDb(ds.images, out_hq);
    const double cr_hq = hq.compressionRatio();
    const Tensor out_lq = lq.process(ds.images);
    const double psnr_lq = psnrDb(ds.images, out_lq);
    const double cr_lq = lq.compressionRatio();
    EXPECT_GT(psnr_hq, psnr_lq);
    EXPECT_LT(cr_hq, cr_lq);
    EXPECT_GT(psnr_hq, 28.0);
    EXPECT_GT(cr_lq, 4.0);
}

TEST(Jpeg, QuantStepScalesWithQuality)
{
    JpegCodec q50(50), q10(10);
    EXPECT_LT(q50.quantStep(3, 3, false), q10.quantStep(3, 3, false));
    // Chroma steps are at least as coarse as luma at high frequency.
    JpegCodec q(50);
    EXPECT_GE(q.quantStep(7, 7, true), q.quantStep(0, 0, true));
}

TEST(Jpeg, OutputInRange)
{
    const Dataset ds = testBatch(1, 16);
    JpegCodec codec(30);
    const Tensor out = codec.process(ds.images);
    for (std::size_t i = 0; i < out.numel(); ++i) {
        EXPECT_GE(out[i], 0.0f);
        EXPECT_LE(out[i], 1.0f);
    }
}

TEST(Wire, RawBitsMatchCompressionRatio)
{
    // A method whose ratio is a bit count ships exactly that many raw
    // bits: 24-bit RGB over the wire's rawBits. CS (N/m measurements,
    // shipped as 10-bit codes) and JPEG (an entropy model) are priced
    // otherwise.
    const Dataset ds = testBatch(2, 32);
    const double rgb_bits = 24.0 * ds.images.size(0) * ds.images.size(2)
                            * ds.images.size(3);
    ConventionalSensor cnv;
    SpatialDownsample sd(2, 4);
    LowResQuantizer lr(QBits(3.0));
    ZonalDct dct(16);
    Microshift ms(2);
    AccumGradientThreshold agt;
    LearnedCodec learned(12);
    learned.train(ds, 1);
    for (CompressionMethod *method : std::initializer_list<
             CompressionMethod *>{&cnv, &sd, &lr, &dct, &ms, &agt,
                                  &learned}) {
        const WireStream ws = method->wireSymbols(ds.images);
        EXPECT_DOUBLE_EQ(rgb_bits / ws.rawBits, method->compressionRatio())
            << method->name();
    }
}

TEST(Table1Metadata, DomainsAndObjectives)
{
    ConventionalSensor cnv;
    CompressiveSensing cs(4);
    JpegCodec jpeg(50);
    Microshift ms(2);
    EXPECT_EQ(cs.domain(), EncodingDomain::Analog);
    EXPECT_EQ(jpeg.domain(), EncodingDomain::Digital);
    EXPECT_EQ(ms.domain(), EncodingDomain::Digital);
    EXPECT_EQ(cnv.objective(), Objective::TaskAgnostic);
    EXPECT_EQ(jpeg.hardwareOverhead(), "High");
}

} // namespace
} // namespace leca
