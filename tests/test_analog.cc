/**
 * @file
 * Tests for the analog circuit models: LUT interpolation, buffer
 * transfer functions, the SCM recurrence of Eq. (3), the variable-
 * resolution ADC, full chains, and Monte-Carlo model extraction.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analog/adc.hh"
#include "analog/buffers.hh"
#include "analog/chain.hh"
#include "analog/circuit_config.hh"
#include "analog/lut.hh"
#include "analog/mismatch.hh"
#include "analog/scm.hh"
#include "util/rng.hh"

namespace leca {
namespace {

/** A Lut1d of @p fn at @p samples evenly spaced points over [lo, hi]. */
template <class Fn>
Lut1d
tabulate(double lo, double hi, int samples, Fn fn)
{
    std::vector<double> values;
    for (int i = 0; i < samples; ++i)
        values.push_back(fn(lo + (hi - lo) * i / (samples - 1)));
    return Lut1d(lo, hi, std::move(values));
}

TEST(Lut1d, ExactAtSamplePoints)
{
    Lut1d lut = tabulate(0.0, 1.0, 11, [](double x) { return x * x; });
    for (int i = 0; i <= 10; ++i) {
        const double x = i / 10.0;
        EXPECT_NEAR(lut(x), x * x, 1e-12);
    }
}

TEST(Lut1d, LinearInterpolationBetweenSamples)
{
    Lut1d lut = tabulate(0.0, 1.0, 2, [](double x) { return 3.0 * x; });
    EXPECT_NEAR(lut(0.25), 0.75, 1e-12);
}

TEST(Lut1d, ClampsOutsideDomain)
{
    Lut1d lut = tabulate(0.0, 1.0, 3, [](double x) { return x; });
    EXPECT_DOUBLE_EQ(lut(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(lut(5.0), 1.0);
}

TEST(SourceFollower, NominalIsDeterministic)
{
    BufferParams params{0.98, -0.01, 0.0, 0.9, 0.0, 0.0, 0.0};
    SourceFollower sf(params);
    EXPECT_NEAR(sf.transfer(1.0), 0.97, 1e-12);
    EXPECT_NEAR(sf.linearModel(1.0), 0.97, 1e-12);
}

TEST(SourceFollower, CubicNonlinearityBendsAwayFromCenter)
{
    BufferParams params{1.0, 0.0, 0.1, 0.9, 0.0, 0.0, 0.0};
    SourceFollower sf(params);
    // At the centre the cubic vanishes.
    EXPECT_NEAR(sf.transfer(0.9), 0.9, 1e-12);
    // Away from the centre it adds the cubic term.
    EXPECT_GT(sf.transfer(1.4), 1.4);
}

TEST(SourceFollower, MismatchInstancesDiffer)
{
    CircuitConfig cfg;
    Rng mc(3);
    SourceFollower a(cfg.psf, mc), b(cfg.psf, mc);
    EXPECT_NE(a.transfer(1.0), b.transfer(1.0));
}

TEST(Scm, IdealStepMatchesEq3)
{
    CircuitConfig cfg;
    // Hand-evaluate Eq. (3) for one step.
    const double cs = 45.0, v_prev = 0.9, v_in = 1.2;
    const double expect = (cs * (2 * cfg.vCm - v_in) + cfg.cOutFf * v_prev)
                          / (cfg.cOutFf + cs);
    EXPECT_NEAR(ScMultiplier::idealStep(cfg, v_prev, v_in, cs), expect,
                1e-15);
}

TEST(Scm, ZeroCapLeavesBufferUnchanged)
{
    CircuitConfig cfg;
    EXPECT_DOUBLE_EQ(ScMultiplier::idealStep(cfg, 0.75, 1.3, 0.0), 0.75);
    ScMultiplier scm(cfg);
    EXPECT_DOUBLE_EQ(scm.step(0.75, 1.3, 0, nullptr), 0.75);
}

TEST(Scm, StepMovesTowardTarget)
{
    // Each step moves V_out toward (2 V_CM - V_in), the charge-domain
    // image of the input.
    CircuitConfig cfg;
    const double v_in = 1.3;
    const double target = 2 * cfg.vCm - v_in; // 0.5
    double v = cfg.vCm;
    for (int i = 0; i < 10; ++i) {
        const double next = ScMultiplier::idealStep(
            cfg, v, v_in, cfg.cSampleTotFf);
        EXPECT_LT(std::abs(next - target), std::abs(v - target));
        v = next;
    }
    EXPECT_NEAR(v, target, 0.01);
}

TEST(Scm, LargerCapMovesFaster)
{
    CircuitConfig cfg;
    const double v_in = 1.3;
    const double small = ScMultiplier::idealStep(cfg, 0.9, v_in, 9.0);
    const double large = ScMultiplier::idealStep(cfg, 0.9, v_in, 135.0);
    const double target = 2 * cfg.vCm - v_in;
    EXPECT_GT(std::abs(small - target), std::abs(large - target));
}

TEST(Scm, CapDacMonotone)
{
    CircuitConfig cfg;
    Rng mc(7);
    ScMultiplier scm(cfg, mc);
    for (int code = 1; code <= cfg.dacSteps(); ++code)
        EXPECT_GT(scm.effectiveCapFf(code), scm.effectiveCapFf(code - 1));
}

TEST(Scm, RealStepCloseToIdeal)
{
    // Fig. 8(b): real behaviour deviates from the analytic model by a
    // small amount (within 1 LSB at 4-bit over a ~0.5 V range).
    CircuitConfig cfg;
    Rng mc(11);
    ScMultiplier scm(cfg, mc);
    const double lsb = 2 * 0.25 / 15.0; // representative 4-bit LSB
    for (int code = 1; code <= 15; code += 2) {
        for (double v_in : {0.5, 0.9, 1.3}) {
            const double ideal = ScMultiplier::idealStep(
                cfg, cfg.vCm, v_in, cfg.unitCapFf() * code);
            const double real = scm.step(cfg.vCm, v_in, code, nullptr);
            EXPECT_LT(std::abs(real - ideal), lsb);
        }
    }
}

/**
 * The chain's MAC sequence over SCM inputs @p v_in (PSF outputs) on the
 * ideal device.
 */
DiffBuffer
idealSequence(const CircuitConfig &cfg, const std::vector<double> &v_in,
              const std::vector<ScmWeight> &w)
{
    DiffBuffer out(cfg.vCm);
    accumulateTaps(
        IdealDevice(cfg), w.data(), static_cast<int>(w.size()),
        [&](int i) { return v_in[static_cast<std::size_t>(i)]; }, out);
    return out;
}

TEST(Scm, SignSteersDifferentialBuffers)
{
    CircuitConfig cfg;
    std::vector<double> v_in = {1.2, 1.2};
    std::vector<ScmWeight> w = {{8, false}, {8, true}};
    const DiffBuffer out = idealSequence(cfg, v_in, w);
    // Same input and magnitude on both rails: differential output ~ 0.
    EXPECT_NEAR(out.diff(), 0.0, 1e-12);
    EXPECT_NE(out.vPlus, cfg.vCm);
}

TEST(Scm, SequenceOrderMatters)
{
    // The recurrence is a running weighted average, so ordering is NOT
    // commutative — this is precisely why soft weights cannot be
    // trivially mapped to hardware (Sec. 6.2).
    CircuitConfig cfg;
    std::vector<double> a_in = {0.5, 1.3};
    std::vector<double> b_in = {1.3, 0.5};
    std::vector<ScmWeight> w = {{15, false}, {3, false}};
    const double a = idealSequence(cfg, a_in, w).vPlus;
    const double b = idealSequence(cfg, b_in, w).vPlus;
    EXPECT_GT(std::abs(a - b), 1e-3);
}

TEST(Adc, CodesCoverFullScale)
{
    VariableResolutionAdc adc;
    adc.configure(QBits(4.0), 0.5);
    EXPECT_EQ(adc.convert(-0.6), 0);
    EXPECT_EQ(adc.convert(0.6), 15);
    EXPECT_EQ(adc.convert(0.0), 8); // rounds up from 7.5
}

TEST(Adc, TernaryConfiguration)
{
    VariableResolutionAdc adc;
    adc.configure(QBits(1.5), 0.3);
    EXPECT_EQ(adc.levels(), 3);
    EXPECT_EQ(adc.convert(-0.3), 0);
    EXPECT_EQ(adc.convert(0.0), 1);
    EXPECT_EQ(adc.convert(0.3), 2);
}

TEST(Adc, MonotoneInInput)
{
    CircuitConfig cfg;
    Rng mc(13);
    VariableResolutionAdc adc(cfg, mc);
    adc.configure(QBits(3.0), 0.4);
    int prev = -1;
    for (double v = -0.45; v <= 0.45; v += 0.01) {
        const int code = adc.convert(v);
        EXPECT_GE(code, prev);
        prev = code;
    }
}

TEST(Adc, CalibrationRemovesOffset)
{
    CircuitConfig big = CircuitConfig{};
    big.adcOffsetSigma = 0.05; // force a visible offset
    Rng mc(17);
    VariableResolutionAdc adc(big, mc);
    adc.configure(QBits(8.0), 0.5);
    VariableResolutionAdc nominal;
    nominal.configure(QBits(8.0), 0.5);
    // Before calibration codes differ somewhere; after they match.
    int diff_before = 0, diff_after = 0;
    for (double v = -0.4; v <= 0.4; v += 0.005)
        if (adc.convert(v) != nominal.convert(v))
            ++diff_before;
    adc.calibrate();
    for (double v = -0.4; v <= 0.4; v += 0.005)
        if (adc.convert(v) != nominal.convert(v))
            ++diff_after;
    EXPECT_GT(diff_before, 0);
    EXPECT_EQ(diff_after, 0);
}

TEST(Adc, DequantizeInverseOnGrid)
{
    // Every grid voltage of the uniform [-full scale, +full scale]
    // reconstruction converts back to its own code.
    VariableResolutionAdc adc;
    adc.configure(QBits(4.0), 0.5);
    for (int code = 0; code < 16; ++code)
        EXPECT_EQ(adc.convert(dequantizeCode(code, -0.5f, 0.5f, 16)), code);
}

TEST(Chain, IdealEncodeIsDeterministic)
{
    CircuitConfig cfg;
    AnalogChain chain = AnalogChain::nominal(cfg);
    chain.adc.configure(QBits(4.0), 0.3);
    std::vector<double> pix = {0.8, 1.0, 1.2, 0.6};
    std::vector<ScmWeight> w = {{5, false}, {9, true}, {3, false},
                                {12, true}};
    const int a = chain.encode(pix, w, true, nullptr);
    const int b = chain.encode(pix, w, true, nullptr);
    EXPECT_EQ(a, b);
}

TEST(Chain, RealCloseToIdealWithinOneLsb)
{
    // The Fig. 8(b) acceptance criterion over a grid of operating
    // points: |code_real - code_ideal| <= 1 at 4-bit resolution.
    CircuitConfig cfg;
    Rng mc(23);
    AnalogChain real = AnalogChain::sample(cfg, mc);
    real.adc.configure(QBits(4.0), 0.3);
    real.adc.calibrate();
    AnalogChain ideal = AnalogChain::nominal(cfg);
    ideal.adc.configure(QBits(4.0), 0.3);
    int max_err = 0;
    for (int code = 0; code <= 15; code += 3) {
        for (double pix = 0.4; pix <= 1.4; pix += 0.1) {
            std::vector<double> pixels(4, pix);
            std::vector<ScmWeight> w(4, ScmWeight{code, false});
            const int c_real = real.encode(pixels, w, false, nullptr);
            const int c_ideal = ideal.encode(pixels, w, true, nullptr);
            max_err = std::max(max_err, std::abs(c_real - c_ideal));
        }
    }
    EXPECT_LE(max_err, 1);
}

/** One MAC sequence and readout of @p dev over raw pixel voltages. */
template <class Device>
double
chainOutput(const Device &dev, const std::vector<double> &pixels,
            const std::vector<ScmWeight> &weights)
{
    DiffBuffer buffer(CircuitConfig{}.vCm);
    accumulateTaps(
        dev, weights.data(), static_cast<int>(weights.size()),
        [&](int i) { return dev.psf(pixels[static_cast<std::size_t>(i)]); },
        buffer);
    return readOut(dev, buffer);
}

TEST(Chain, ZeroMagnitudeTapDrawsNothing)
{
    // A zero-magnitude tap connects no sampling cap, so it moves no
    // charge and draws no noise — on a die and in the extracted model.
    CircuitConfig cfg;
    Rng mc(43);
    const AnalogChain die = AnalogChain::sample(cfg, mc);
    const AnalogNoiseModel model = extractNoiseModel(cfg, 20, mc);

    const std::vector<double> pixels = {0.6, 1.1, 0.8, 1.3};
    const std::vector<ScmWeight> weights = {
        {7, false}, {12, true}, {3, false}, {9, true}};
    // The same taps with a zero tap of either sign before each one; the
    // inserted taps read their own pixels.
    std::vector<double> pixels_z;
    std::vector<ScmWeight> weights_z, weights_live;
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        pixels_z.insert(pixels_z.end(), {0.5 + 0.2 * i, pixels[i]});
        weights_z.insert(weights_z.end(), {{0, i % 2 == 1}, weights[i]});
        weights_live.insert(weights_live.end(),
                            {{1, i % 2 == 1}, weights[i]});
    }

    for (const bool extracted : {false, true}) {
        SCOPED_TRACE(extracted ? "ExtractedDevice" : "DieDevice");
        auto run = [&](const std::vector<double> &px,
                       const std::vector<ScmWeight> &w, Rng &noise) {
            return extracted
                       ? chainOutput(ExtractedDevice(model, cfg, noise), px, w)
                       : chainOutput(DieDevice(die, &noise), px, w);
        };
        Rng plain(5), with_zeros(5), with_live(5);
        EXPECT_EQ(run(pixels, weights, plain),
                  run(pixels_z, weights_z, with_zeros));
        // Both streams are in the same state: the next draws agree,
        // including a Box-Muller value either one may have cached.
        EXPECT_EQ(plain.gaussian(), with_zeros.gaussian());
        EXPECT_EQ(plain.next(), with_zeros.next());
        // Control: the same taps at magnitude 1 do draw.
        Rng again(5);
        run(pixels, weights, again);
        run(pixels_z, weights_live, with_live);
        EXPECT_NE(again.gaussian(), with_live.gaussian());
    }
}

TEST(Mismatch, ExtractedModelShapes)
{
    CircuitConfig cfg;
    Rng mc(29);
    const AnalogNoiseModel model = extractNoiseModel(cfg, 50, mc);
    EXPECT_EQ(model.scm.epsMean.size(),
              static_cast<std::size_t>(cfg.dacSteps()) + 1);
    EXPECT_GT(model.psf.sigma(0.9), 0.0);
    EXPECT_GT(model.fvf.sigma(0.9), 0.0);
    EXPECT_DOUBLE_EQ(model.adcOffsetSigma, cfg.adcOffsetSigma);
}

TEST(Mismatch, MeanTransferTracksNominal)
{
    CircuitConfig cfg;
    Rng mc(31);
    const AnalogNoiseModel model = extractNoiseModel(cfg, 200, mc);
    SourceFollower nominal(cfg.psf);
    for (double v : {0.5, 0.9, 1.3}) {
        EXPECT_NEAR(model.psf.meanTransfer(v), nominal.transfer(v),
                    3e-3);
    }
}

TEST(Mismatch, ScmErrorSmallAndCodeDependent)
{
    CircuitConfig cfg;
    Rng mc(37);
    const AnalogNoiseModel model = extractNoiseModel(cfg, 100, mc);
    // Mean error magnitude is bounded (sub-LSB) and grows with code.
    for (int code = 1; code <= cfg.dacSteps(); ++code) {
        EXPECT_LT(std::abs(model.scm.epsMean[
            static_cast<std::size_t>(code)]), 0.02);
    }
    EXPECT_GT(std::abs(model.scm.epsMean[15]),
              std::abs(model.scm.epsMean[1]) * 0.5);
}

} // namespace
} // namespace leca
