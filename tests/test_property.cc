/**
 * @file
 * Parameterized property tests (TEST_P sweeps) over the numeric
 * substrates: quantizers, the SCM recurrence, convolution vs a naive
 * reference across its parameter grid, Bayer round trips, timing-model
 * monotonicity, energy-model scaling, and the Eq. (1) design space.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analog/adc.hh"
#include "analog/scm.hh"
#include "core/leca_config.hh"
#include "energy/energy_model.hh"
#include "hw/timing.hh"
#include "nn/quantize.hh"
#include "sensor/bayer.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

namespace leca {
namespace {

// ---------------------------------------------------------------------
// Quantizer properties across level counts.
// ---------------------------------------------------------------------

class QuantizerLevels : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantizerLevels, RoundTripIdempotent)
{
    const int levels = GetParam();
    Rng rng(31 + levels);
    for (int i = 0; i < 50; ++i) {
        const float x = static_cast<float>(rng.uniform(-2.0, 2.0));
        const float q = quantizeUniform(x, -1.0f, 1.0f, levels);
        EXPECT_FLOAT_EQ(q, quantizeUniform(q, -1.0f, 1.0f, levels));
    }
}

TEST_P(QuantizerLevels, ErrorBoundedByHalfStep)
{
    const int levels = GetParam();
    const float step = 2.0f / static_cast<float>(levels - 1);
    Rng rng(37 + levels);
    for (int i = 0; i < 50; ++i) {
        const float x = static_cast<float>(rng.uniform(-1.0, 1.0));
        const float q = quantizeUniform(x, -1.0f, 1.0f, levels);
        EXPECT_LE(std::abs(q - x), step / 2 + 1e-6f);
    }
}

TEST_P(QuantizerLevels, CodesMonotoneInInput)
{
    const int levels = GetParam();
    int prev = -1;
    for (float x = -1.2f; x <= 1.2f; x += 0.01f) {
        const int code = quantizeCode(x, -1.0f, 1.0f, levels);
        EXPECT_GE(code, prev);
        EXPECT_GE(code, 0);
        EXPECT_LT(code, levels);
        prev = code;
    }
}

TEST_P(QuantizerLevels, ExtremesMapToEndCodes)
{
    const int levels = GetParam();
    EXPECT_EQ(quantizeCode(-9.0f, -1.0f, 1.0f, levels), 0);
    EXPECT_EQ(quantizeCode(9.0f, -1.0f, 1.0f, levels), levels - 1);
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerLevels,
                         ::testing::Values(2, 3, 4, 8, 16, 64, 256));

// ---------------------------------------------------------------------
// SCM recurrence properties per cap code.
// ---------------------------------------------------------------------

class ScmCode : public ::testing::TestWithParam<int>
{
  protected:
    CircuitConfig cfg;
};

TEST_P(ScmCode, StepIsContractionTowardTarget)
{
    const int code = GetParam();
    const double cap = cfg.unitCapFf() * code;
    for (double v_in : {0.5, 0.9, 1.3}) {
        const double target = 2 * cfg.vCm - v_in;
        for (double v_prev : {0.5, 0.9, 1.3}) {
            const double next =
                ScMultiplier::idealStep(cfg, v_prev, v_in, cap);
            EXPECT_LE(std::abs(next - target),
                      std::abs(v_prev - target) + 1e-12);
        }
    }
}

TEST_P(ScmCode, FixedPointIsTarget)
{
    // The recurrence's fixed point is exactly 2 V_CM - V_in.
    const int code = GetParam();
    const double cap = cfg.unitCapFf() * code;
    const double v_in = 1.1;
    const double target = 2 * cfg.vCm - v_in;
    EXPECT_NEAR(ScMultiplier::idealStep(cfg, target, v_in, cap), target,
                1e-12);
}

TEST_P(ScmCode, RealDeviceBounded)
{
    const int code = GetParam();
    Rng mc(41);
    ScMultiplier scm(cfg, mc);
    for (double v_in = 0.4; v_in <= 1.4; v_in += 0.2) {
        const double v = scm.step(cfg.vCm, v_in, code, nullptr);
        EXPECT_GT(v, 0.0);
        EXPECT_LT(v, 2.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Codes, ScmCode,
                         ::testing::Values(1, 3, 7, 11, 15));

// ---------------------------------------------------------------------
// Convolution against a naive reference across its parameter grid.
// ---------------------------------------------------------------------

struct ConvCase
{
    int cin, cout, k, stride, pad, hw;
};

class ConvGrid : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvGrid, MatchesNaiveReference)
{
    const ConvCase c = GetParam();
    Rng rng(59);
    Tensor x({2, c.cin, c.hw, c.hw});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1, 1));
    Tensor w({c.cout, c.cin, c.k, c.k});
    for (std::size_t i = 0; i < w.numel(); ++i)
        w[i] = static_cast<float>(rng.uniform(-1, 1));

    const Tensor fast = conv2d(x, w, Tensor(), c.stride, c.pad);
    // Naive loop.
    const int oh = convOutSize(c.hw, c.k, c.stride, c.pad);
    for (int n = 0; n < 2; ++n)
        for (int co = 0; co < c.cout; ++co)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < oh; ++ox) {
                    float acc = 0.0f;
                    for (int ci = 0; ci < c.cin; ++ci)
                        for (int ky = 0; ky < c.k; ++ky)
                            for (int kx = 0; kx < c.k; ++kx) {
                                const int iy = oy * c.stride + ky - c.pad;
                                const int ix = ox * c.stride + kx - c.pad;
                                if (iy < 0 || iy >= c.hw || ix < 0 ||
                                    ix >= c.hw)
                                    continue;
                                acc += x.at(n, ci, iy, ix)
                                       * w.at(co, ci, ky, kx);
                            }
                    EXPECT_NEAR(fast.at(n, co, oy, ox), acc, 1e-4f);
                }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvGrid,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5},
                      ConvCase{2, 3, 2, 2, 0, 8},
                      ConvCase{3, 2, 3, 1, 1, 6},
                      ConvCase{2, 4, 3, 2, 1, 9},
                      ConvCase{4, 1, 5, 1, 2, 7},
                      ConvCase{1, 2, 4, 4, 0, 8}));

// ---------------------------------------------------------------------
// Bayer mosaic round trip across geometries.
// ---------------------------------------------------------------------

class BayerSize : public ::testing::TestWithParam<int>
{
};

TEST_P(BayerSize, MosaicCollapseRoundTrip)
{
    const int hw = GetParam();
    Rng rng(61 + hw);
    Tensor rgb({3, hw, hw});
    for (std::size_t i = 0; i < rgb.numel(); ++i)
        rgb[i] = static_cast<float>(rng.uniform());
    // Collapsing each RGGB cell (R, the mean of its two greens, B)
    // recovers the image.
    const Tensor raw = mosaic(rgb);
    for (int y = 0; y < hw; ++y)
        for (int x = 0; x < hw; ++x) {
            EXPECT_NEAR(raw.at(2 * y, 2 * x), rgb.at(0, y, x), 1e-6f);
            EXPECT_NEAR(0.5f * (raw.at(2 * y, 2 * x + 1)
                                + raw.at(2 * y + 1, 2 * x)),
                        rgb.at(1, y, x), 1e-6f);
            EXPECT_NEAR(raw.at(2 * y + 1, 2 * x + 1), rgb.at(2, y, x),
                        1e-6f);
        }
}

TEST_P(BayerSize, MosaicPreservesEnergyOfGrey)
{
    const int hw = GetParam();
    Tensor rgb = Tensor::full({3, hw, hw}, 0.25f);
    const Tensor raw = mosaic(rgb);
    for (std::size_t i = 0; i < raw.numel(); ++i)
        EXPECT_FLOAT_EQ(raw[i], 0.25f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BayerSize,
                         ::testing::Values(2, 4, 8, 16, 24));

// ---------------------------------------------------------------------
// Timing model monotonicity.
// ---------------------------------------------------------------------

class TimingRows : public ::testing::TestWithParam<int>
{
};

TEST_P(TimingRows, LatencyLinearInRows)
{
    TimingModel timing;
    const int rows = GetParam();
    const double t1 = timing.frameLatencyUs(rows, 4);
    const double t2 = timing.frameLatencyUs(2 * rows, 4);
    EXPECT_NEAR(t2, 2 * t1, 1e-9);
}

TEST_P(TimingRows, FpsDecreasesWithNch)
{
    TimingModel timing;
    const int rows = GetParam();
    double prev = 1e18;
    for (int nch : {1, 4, 5, 8, 9, 12}) {
        const double fps = timing.framesPerSecond(rows, nch);
        EXPECT_LE(fps, prev + 1e-9);
        prev = fps;
    }
}

INSTANTIATE_TEST_SUITE_P(Rows, TimingRows,
                         ::testing::Values(64, 224, 448, 1080));

// ---------------------------------------------------------------------
// Energy model scaling.
// ---------------------------------------------------------------------

class AdcBits : public ::testing::TestWithParam<double>
{
};

TEST_P(AdcBits, ConversionEnergyPositiveAndBelow8bitSar)
{
    EnergyModel model;
    const double bits = GetParam();
    const double e = model.adcConversionPj(bits);
    EXPECT_GT(e, 0.0);
    if (bits < 8.0) {
        EXPECT_LT(e, model.adcConversionPj(8.0));
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcBits,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0, 6.0, 8.0));

// ---------------------------------------------------------------------
// Eq. (1) design space.
// ---------------------------------------------------------------------

class DesignCr : public ::testing::TestWithParam<double>
{
};

/** The K = 2 design points (N_ch <= 16, the paper's bit depths) whose
 *  Eq. (1) ratio is @p target_cr: the Fig. 4(b) sweep. */
std::vector<LecaConfig>
designPoints(double target_cr)
{
    std::vector<LecaConfig> points;
    for (int nch = 1; nch <= 16; ++nch)
        for (double bits : {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0}) {
            LecaConfig cfg;
            cfg.kernel = 2;
            cfg.nch = nch;
            cfg.qbits = QBits(bits);
            if (std::abs(cfg.compressionRatio() - target_cr) < 1e-9)
                points.push_back(cfg);
        }
    return points;
}

TEST_P(DesignCr, AllEnumeratedPointsHitTarget)
{
    const double cr = GetParam();
    const auto points = designPoints(cr);
    EXPECT_FALSE(points.empty());
    for (const auto &p : points) {
        EXPECT_DOUBLE_EQ(p.compressionRatio(), cr);
        EXPECT_EQ(p.kernel, 2);
        EXPECT_GE(p.nch, 1);
        EXPECT_LE(p.nch, 16);
    }
}

TEST_P(DesignCr, HigherCrMeansFewerOutputBits)
{
    const double cr = GetParam();
    for (const auto &p : designPoints(cr)) {
        const double out_bits = p.nch * p.qbits.bits();
        EXPECT_NEAR(out_bits, 2 * 2 * 3 * 8.0 / cr, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Ratios, DesignCr,
                         ::testing::Values(2.0, 4.0, 6.0, 8.0, 12.0,
                                           16.0));

// ---------------------------------------------------------------------
// ADC resolution sweep.
// ---------------------------------------------------------------------

class AdcResolution : public ::testing::TestWithParam<double>
{
};

TEST_P(AdcResolution, FullScaleSweepCoversAllCodes)
{
    VariableResolutionAdc adc;
    adc.configure(QBits(GetParam()), 0.4);
    std::vector<bool> seen(static_cast<std::size_t>(adc.levels()), false);
    for (double v = -0.45; v <= 0.45; v += 0.001)
        seen[static_cast<std::size_t>(adc.convert(v))] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST_P(AdcResolution, DequantizeRoundTripOnGrid)
{
    VariableResolutionAdc adc;
    adc.configure(QBits(GetParam()), 0.4);
    for (int code = 0; code < adc.levels(); ++code)
        EXPECT_EQ(adc.convert(dequantizeCode(code, -0.4f, 0.4f,
                                             adc.levels())),
                  code);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcResolution,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0, 8.0));

} // namespace
} // namespace leca
